package experiments

import "testing"

// TestHistoryReplayMatchesLive is the flight-recorder acceptance gate:
// Algorithms 1 and 2 must produce the same verdicts from the history
// store as from live SampleInterval collection over the same window, with
// the history path issuing zero agent queries.
func TestHistoryReplayMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated timeline; skip in -short")
	}
	r, err := RunHistoryReplay()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "history", r)
	t.Logf("\n%s", r)
	if r.StackQueriesLive == 0 {
		t.Error("live stack diagnosis issued no agent queries — counter not wired")
	}
	if r.StackQueriesHistory != 0 || r.ChainQueriesHistory != 0 {
		t.Errorf("history diagnosis queried agents (stack %d, chain %d), want 0",
			r.StackQueriesHistory, r.ChainQueriesHistory)
	}
	if !r.Match() {
		t.Errorf("history verdicts diverged from live:\nstack live    %v\nstack history %v\nchain live    %v\nchain history %v",
			r.StackLive, r.StackHistory, r.ChainLive, r.ChainHistory)
	}
	if len(r.Events) == 0 {
		t.Error("the contention phase produced no diagnosis events")
	}
	if r.StoreStats.Resident == 0 || r.StoreStats.Appends == 0 {
		t.Errorf("recorder stored nothing: %+v", r.StoreStats)
	}
}
