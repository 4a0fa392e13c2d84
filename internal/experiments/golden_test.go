package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run's reports")

// wallLine matches the one report line of the history and anomaly
// experiments that carries wall-clock measurements.
var wallLine = regexp.MustCompile(`(?m)^.* wall.*$`)

// checkGolden compares a deterministic experiment's rendered report, and
// its CSV series when it has one, with testdata/golden/<name>.{txt,csv}.
// The asserted verdicts only pin the headline; this pins every digit, so
// a refactor that moves any number shows up here. Other architectures
// fuse multiply-adds and differ in the low digits, so only amd64 compares.
func checkGolden(t *testing.T, name string, r fmt.Stringer) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	files := map[string]string{name + ".txt": wallLine.ReplaceAllString(r.String(), "<wall-clock line>")}
	if c, ok := r.(CSVer); ok {
		files[name+".csv"] = c.CSV()
	}
	for file, got := range files {
		path := filepath.Join("testdata", "golden", file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("no golden (record one with -update): %v", err)
			continue
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden (rerun with -update if the change is meant); got:\n%s", path, got)
		}
	}
}
