package experiments

import (
	"testing"

	"perfsight/internal/diagnosis"
)

// TestRunMboxKinds asserts the paper's missing middlebox kinds are covered
// end to end: the IDS's capture-ring loss is located AT the middlebox and
// blamed on the VM's own allocation, and the SmartCache's warming hit
// ratio shows up in the controller's interval arithmetic.
func TestRunMboxKinds(t *testing.T) {
	res, err := RunMboxKinds()
	if err != nil {
		t.Fatalf("RunMboxKinds: %v", err)
	}
	checkGolden(t, "mboxkinds", res)
	t.Logf("\n%s", res)
	if res.IDSTopLocation != diagnosis.LocMiddlebox {
		t.Errorf("IDS loss located at %s; want %s", res.IDSTopLocation, diagnosis.LocMiddlebox)
	}
	if res.IDSInferred != diagnosis.ResourceVMBottleneck {
		t.Errorf("IDS inferred %s; want %s", res.IDSInferred, diagnosis.ResourceVMBottleneck)
	}
	if res.IDSTopElement != "m0/vm-ids/app" || res.IDSDropPkts <= 0 {
		t.Errorf("IDS top element %s with %.0f drops; want m0/vm-ids/app with > 0", res.IDSTopElement, res.IDSDropPkts)
	}
	if !res.CacheOK {
		t.Errorf("SmartCache warming not visible to the controller: hit ratio %.2f, out/in %.3f (want ~%.2f)",
			res.CacheHitRatio, res.CacheOutRatio, res.CacheWantOut)
	}
	if !res.AllCorrect() {
		t.Errorf("AllCorrect() = false:\n%s", res)
	}
}
