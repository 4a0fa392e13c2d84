package experiments

import (
	"runtime"
	"testing"
	"time"

	"perfsight/internal/history"
)

// goldenCfg is the 200-machine determinism scenario: small enough to run
// three times in a test, large enough that a single misordered commit
// somewhere in 60k machine-ticks would scramble the hash.
func goldenCfg() ScaleConfig {
	return ScaleConfig{
		Machines:      200,
		VMsPerMachine: 1,
		Domains:       8,
		Tick:          time.Millisecond,
		Duration:      300 * time.Millisecond,
		Seed:          42,
		RatePerVM:     200e6,
	}
}

// runGolden builds the scenario (serial, or parallel with the given
// worker count), runs it in six 50ms legs with an agent sweep into a
// fresh history store after each leg, and returns the store's content
// hash plus the raw trajectory hash.
func runGolden(t *testing.T, cfg ScaleConfig, parallel bool, workers int) (storeH, trajH uint64) {
	t.Helper()
	cfg.Workers = workers
	sl, err := buildScaleLab(cfg, parallel, true)
	if err != nil {
		t.Fatalf("build scale lab: %v", err)
	}
	defer sl.l.Close()
	st := history.New(history.Config{})
	legs := 6
	for i := 0; i < legs; i++ {
		sl.l.Run(cfg.Duration / time.Duration(legs))
		if err := sl.sweepToStore(st); err != nil {
			t.Fatalf("sweep leg %d: %v", i, err)
		}
	}
	return storeHash(st), sl.trajectoryHash()
}

// TestParallelDeterminismGolden: the same seeded 200-machine scenario must
// leave byte-identical history-store content whether it ran on the default
// one-domain serial engine, sharded over one worker, or sharded over
// several workers.
func TestParallelDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200-machine scenario three times")
	}
	cfg := goldenCfg()
	serialStore, serialTraj := runGolden(t, cfg, false, 0)
	par1Store, par1Traj := runGolden(t, cfg, true, 1)
	parNStore, parNTraj := runGolden(t, cfg, true, 4)

	if par1Traj != serialTraj {
		t.Errorf("trajectory diverged: serial %016x vs parallel@1 %016x", serialTraj, par1Traj)
	}
	if parNTraj != serialTraj {
		t.Errorf("trajectory diverged: serial %016x vs parallel@4 %016x", serialTraj, parNTraj)
	}
	if par1Store != serialStore {
		t.Errorf("history store diverged: serial %016x vs parallel@1 %016x", serialStore, par1Store)
	}
	if parNStore != serialStore {
		t.Errorf("history store diverged: serial %016x vs parallel@4 %016x", serialStore, parNStore)
	}
}

// TestParallelScaleSpeedup is the acceptance floor: the 2000-machine
// scenario must run at least 4x faster on the sharded engine than on the
// serial one — meaningful only with real cores, so single-digit-core CI
// boxes skip it (the determinism golden above still runs everywhere).
func TestParallelScaleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 2000-machine scenario twice")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("speedup floor needs >= 4 cores; have %d", runtime.NumCPU())
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	res, err := RunScale(ScaleConfig{
		Machines: 2000,
		Domains:  8,
		Workers:  workers,
		Duration: 200 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	t.Logf("\n%s", res)
	if !res.Deterministic() {
		t.Fatalf("parallel trajectory diverged from serial: %016x vs %016x", res.SerialHash, res.ParallelHash)
	}
	floor := 4.0
	if workers < 8 {
		floor = float64(workers) / 2
	}
	if res.Speedup() < floor {
		t.Fatalf("speedup %.2fx below the %.1fx floor (%d workers)", res.Speedup(), floor, workers)
	}
}

// TestRunScaleSmall keeps RunScale itself covered on every box: a small
// fleet, still asserting the serial and parallel hashes agree.
func TestRunScaleSmall(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		Machines: 24,
		Domains:  6,
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if !res.Deterministic() {
		t.Fatalf("parallel trajectory diverged from serial:\n%s", res)
	}
}
