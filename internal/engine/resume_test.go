package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// resultsEqual asserts two engine results carry bit-identical
// measurements.
func resultsEqual(t *testing.T, what string, a, b *engine.Result) {
	t.Helper()
	if len(a.Units) != len(b.Units) {
		t.Fatalf("%s: %d units vs %d", what, len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.Index != ub.Index || ua.Cycles != ub.Cycles {
			t.Fatalf("%s: unit %d differs: %+v vs %+v", what, i, ua, ub)
		}
		bitsEqual(t, what+" CPI", ua.CPI, ub.CPI)
		bitsEqual(t, what+" EPI", ua.EPI, ub.EPI)
	}
	if a.MeasuredInsts != b.MeasuredInsts || a.WarmingInsts != b.WarmingInsts {
		t.Fatalf("%s: instruction accounting differs", what)
	}
}

// TestEngineResumesCancelledSweep is the engine half of the crash/
// resume acceptance: a run cancelled mid-sweep journals its progress,
// and rerunning the same key completes from the journal — measurements
// bit-identical to an uninterrupted run, total sweep work across both
// runs within 1.1x one cold sweep (excluding the replay window of at
// most one journal interval, which the tight interval here keeps
// negligible).
func TestEngineResumesCancelledSweep(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, J: 0, FunctionalWarm: true}

	baseline, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Units) < 20 {
		t.Fatalf("plan too small: %d units", len(baseline.Units))
	}

	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Journal at every keyframe, keyframe every 4 units: an interruption
	// replays at most 4 units of sweep.
	opt := engine.Options{Workers: 2, Cache: checkpoint.DiskCache(store), Keyframe: 4, ResumeInterval: 1}

	// Cancel mid-sweep, past the halfway mark so the resume saving is
	// unambiguous.
	cancelAt := 3 * len(baseline.Units) / 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opt
	interrupted.OnCaptured = func(captured int) {
		if captured >= cancelAt {
			cancel()
		}
	}
	if _, err := engine.Run(ctx, p, cfg, params, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}

	// Rerun with the same key: the sweep must resume from the journal.
	resumed, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SweepCached {
		t.Fatal("resumed run hit a committed entry; the cancelled run must not have committed one")
	}
	if resumed.SweepResumedInsts == 0 {
		t.Fatal("rerun did not resume from the journal")
	}
	resultsEqual(t, "resumed vs baseline", resumed, baseline)
	if resumed.SweepInsts != baseline.SweepInsts {
		t.Fatalf("sweep accounting differs: %d vs %d", resumed.SweepInsts, baseline.SweepInsts)
	}

	// The interrupted run swept to (roughly) its cancel point and
	// journaled that position; the resumed run only executed SweepInsts -
	// SweepResumedInsts on top. With the cancel at 3/4 of the plan and a
	// one-keyframe journal interval, the journal must sit past the
	// halfway mark — i.e. the rerun genuinely skipped most of the sweep,
	// so the combined work stays within the issue's 1.1x-of-cold bound.
	if resumed.SweepResumedInsts <= baseline.SweepInsts/2 {
		t.Fatalf("journal frame at %d insts, cancelled at ~3/4 of a %d-inst sweep — resume saved too little",
			resumed.SweepResumedInsts, baseline.SweepInsts)
	}

	// The journal is gone and the committed entry serves the next run.
	rerun, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.SweepCached {
		t.Fatal("completed resumed run did not commit a store entry")
	}
	resultsEqual(t, "store entry after resume", rerun, baseline)
}

// TestEngineResumeDisabled: a negative ResumeInterval must leave no
// journal behind on cancel and restart the sweep cold on rerun.
func TestEngineResumeDisabled(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, J: 0, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Workers: 2, Cache: checkpoint.DiskCache(store), ResumeInterval: -1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opt
	interrupted.OnCaptured = func(captured int) {
		if captured >= 5 {
			cancel()
		}
	}
	if _, err := engine.Run(ctx, p, cfg, params, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}
	res, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.SweepResumedInsts != 0 {
		t.Fatal("resume happened with journaling disabled")
	}
}

// TestEngineResumeCorruptJournalFallsBack: a journal that fails resume
// validation must degrade to a cold sweep, not fail the run.
func TestEngineResumeCorruptJournalFallsBack(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, J: 0, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Workers: 2, Cache: checkpoint.DiskCache(store), Keyframe: 4, ResumeInterval: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opt
	interrupted.OnCaptured = func(captured int) {
		if captured >= 8 {
			cancel()
		}
	}
	if _, err := engine.Run(ctx, p, cfg, params, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}

	key := checkpoint.KeyFor(p, cfg, params)
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("no journal (rs=%v err=%v)", rs != nil, err)
	}

	baseline, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the journal with poisoned geometry: it decodes cleanly but
	// disagrees with the plan's boundary stream, so resume validation
	// must reject it and the run restart cold.
	rs.Units[0].Index += 3
	store.DropPartial(key)
	w, err := store.Writer(key, p.Length/params.U, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rs.Units {
		if err := w.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Frame(checkpoint.ResumeFrame{
		Captured:   len(rs.Units),
		SweepInsts: rs.SweepInsts,
		SweepTime:  rs.SweepTime,
		HaveIBlock: rs.HaveIBlock,
		LastIBlock: rs.LastIBlock,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Suspend(); err != nil {
		t.Fatal(err)
	}

	res, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatalf("run with poisoned journal failed: %v", err)
	}
	if res.SweepResumedInsts != 0 {
		t.Fatal("poisoned journal was resumed")
	}
	resultsEqual(t, "cold fallback", res, baseline)
}

// TestEngineJournalIsStagedEntry: a journaled store-backed run writes
// its sweep once. While it runs, the store directory holds one staged
// file — the temp name and the published *.partial journal are links to
// it — and the entry committed at the end is that same file.
func TestEngineJournalIsStagedEntry(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, J: 0, FunctionalWarm: true}
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	var journal os.FileInfo
	var failure string
	opt := engine.Options{Workers: 2, Cache: checkpoint.DiskCache(store), Keyframe: 4, ResumeInterval: 1}
	opt.OnCaptured = func(captured int) {
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			failure = err.Error()
			return
		}
		var files []os.FileInfo
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				failure = err.Error()
				return
			}
			files = append(files, fi)
			if filepath.Base(name) == key.Hash()+".partial" {
				journal = fi
			}
		}
		for _, fi := range files {
			if !os.SameFile(fi, files[0]) && failure == "" {
				failure = fmt.Sprintf("at %d units the store holds two files: %v", captured, names)
			}
		}
	}
	if _, err := engine.Run(context.Background(), p, cfg, params, opt); err != nil {
		t.Fatal(err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
	if journal == nil {
		t.Fatal("no journal was published during the sweep")
	}
	entry, err := os.Stat(filepath.Join(dir, key.Hash()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(journal, entry) {
		t.Fatal("the committed entry is not the file the sweep journaled")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.partial")); len(left) != 0 {
		t.Fatalf("journal survived the commit: %v", left)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
		t.Fatalf("staged files survived the commit: %v", left)
	}
}
