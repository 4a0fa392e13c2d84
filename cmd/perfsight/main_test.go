package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfsight/internal/experiments"
)

// TestScenarioList: -scenario list prints exactly the fault table.
func TestScenarioList(t *testing.T) {
	var want strings.Builder
	want.WriteString("available scenarios:\n")
	for _, f := range experiments.Faults {
		fmt.Fprintf(&want, "  %-18s %s\n", f.Name, f.About)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if stdout.String() != want.String() {
		t.Errorf("list printed:\n%s\nwant the fault table:\n%s", &stdout, &want)
	}
}

// TestNarratedScenarios: the four step-by-step demos exit 0 and print what
// they printed before they were rebuilt on the catalogue. (membw, backlog
// and chain are the pre-catalogue binary's output byte for byte; bottleneck
// differs from it in the one drop count CHANGES.md explains.)
func TestNarratedScenarios(t *testing.T) {
	for name := range demos {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-scenario", name}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, &stderr)
			}
			if stdout.String() != string(want) {
				t.Errorf("output differs from testdata/%s.golden; got:\n%s", name, &stdout)
			}
		})
	}
}

func TestUnknownScenarioExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown scenario "nope"`) || stdout.Len() != 0 {
		t.Errorf("stdout %q stderr %q", &stdout, &stderr)
	}
}

// TestCatalogueFlowNames: no topology in the catalogue routes a flow whose
// ID is a botched format (the demo's flows were once named
// "rx-0%!(EXTRA int=0)").
func TestCatalogueFlowNames(t *testing.T) {
	for _, f := range experiments.Faults {
		l, _, err := f.Build("t")
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, mid := range l.C.Machines() {
			for _, r := range l.C.Machine(mid).Stack.VSwitch.Rules() {
				if strings.Contains(string(r.Flow), "%!") {
					t.Errorf("%s: flow %q on %s", f.Name, r.Flow, mid)
				}
			}
		}
		l.Close()
	}
}
