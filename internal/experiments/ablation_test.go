package experiments

import "testing"

// TestAblations verifies each calibrated design choice actually produces
// the behaviour it was introduced for (and that removing it loses it).
func TestAblations(t *testing.T) {
	r, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablations", r)
	for _, row := range r.Rows {
		if !row.Holds {
			t.Errorf("%s: with=%.2f without=%.2f (%s)", row.Choice, row.With, row.Without, row.Expected)
		}
	}
}
