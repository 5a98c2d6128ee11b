package checkpoint_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// journalSweep runs one CaptureResumable into a store writer that
// journals every frame, continuing rs when non-nil, exactly as the
// engine's sweep goroutine does. stopAfter > 0 cuts the sweep (emit
// returns false) at that many new units. A complete sweep commits the
// entry; an interrupted one suspends, keeping the journal for the next
// round. It returns every emitted unit, the journaled ones first.
func journalSweep(t *testing.T, prog *program.Program, cfg uarch.Config, params checkpoint.Params,
	store *checkpoint.Store, key checkpoint.Key, rs *checkpoint.ResumeState, stopAfter int,
) ([]*checkpoint.Unit, *checkpoint.Summary) {
	t.Helper()
	w, err := store.Writer(key, prog.Length/params.U, 1)
	if err != nil {
		t.Fatal(err)
	}
	params.Resume = rs
	prior := 0
	if rs != nil {
		prior = len(rs.Units)
	}
	var units []*checkpoint.Unit
	sum, err := checkpoint.CaptureResumable(context.Background(), prog, cfg, params, w, func(u *checkpoint.Unit) bool {
		units = append(units, u)
		return stopAfter == 0 || len(units)-prior < stopAfter
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Complete {
		err = w.Commit(sum.SweepInsts, sum.SweepTime)
	} else {
		err = w.Suspend()
	}
	if err != nil {
		t.Fatal(err)
	}
	return units, sum
}

// frameBound is where one frame of a journaled entry ends, and how many
// units it seals.
type frameBound struct{ at, units int }

// journaledEntry writes a complete sweep the way a journaled sweep
// commits it — through a buffer writer that journals every frame — and
// returns the frame-bearing entry with the bound of every frame in it.
func journaledEntry(t testing.TB, prog *program.Program, cfg uarch.Config, params checkpoint.Params, key checkpoint.Key) ([]byte, []frameBound) {
	t.Helper()
	var bounds []frameBound
	emitted := 0
	w := checkpoint.BufferWriter(key, prog.Length/params.U, 1, func(journal []byte) {
		bounds = append(bounds, frameBound{len(journal), emitted})
	})
	sum, err := checkpoint.CaptureResumable(context.Background(), prog, cfg, params, w, func(*checkpoint.Unit) bool {
		emitted++
		return true
	})
	if err != nil || !sum.Complete {
		t.Fatalf("journaled sweep: complete=%v err=%v", sum != nil && sum.Complete, err)
	}
	if err := w.Commit(sum.SweepInsts, sum.SweepTime); err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 2 {
		t.Fatalf("journaled entry has %d frames, want several", len(bounds))
	}
	return w.Bytes(), bounds
}

// TestResumeMatchesUninterruptedSweep is the resume property test: a
// sweep interrupted at randomized kill points — repeatedly, each round
// resuming from the crash-safe journal — must produce exactly the unit
// stream of an uninterrupted sweep: same launch geometry, arch state,
// memory, and warm state, and the same total sweep-instruction
// accounting. Runs warmed and cold, and warmed on a store whose
// filesystem has no hard links (the journal is then a copy renewed at
// every frame).
func TestResumeMatchesUninterruptedSweep(t *testing.T) {
	for _, tc := range []struct {
		name        string
		warm, links bool
	}{{"warm", true, true}, {"cold", false, true}, {"warm-without-hard-links", true, false}} {
		warm := tc.warm
		t.Run(tc.name, func(t *testing.T) {
			if !tc.links {
				defer checkpoint.WithoutHardLinks()()
			}
			p := genProg(t, "gccx", 300_000)
			cfg := uarch.Config8Way()
			params := checkpoint.Params{U: 1000, W: 2000, K: 10, FunctionalWarm: warm, Keyframe: 4}
			whole := capture(t, p, cfg, params)
			want := whole.Units
			if len(want) < 10 {
				t.Fatalf("plan too small for kill points: %d units", len(want))
			}

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				store, err := checkpoint.OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				key := checkpoint.KeyFor(p, cfg, params)
				var rs *checkpoint.ResumeState
				for round := 0; ; round++ {
					if round > 3*len(want) {
						t.Fatal("resume never converged to a complete sweep")
					}
					prior := 0
					if rs != nil {
						prior = len(rs.Units)
					}
					stop := 0
					if remaining := len(want) - prior; remaining > 2 && rng.Intn(3) > 0 {
						stop = 1 + rng.Intn(remaining-1)
					}
					combined, sum := journalSweep(t, p, cfg, params, store, key, rs, stop)

					// Every round's journal+emission must be a prefix of the
					// uninterrupted stream, bit for bit.
					if len(combined) > len(want) {
						t.Fatalf("round %d: %d units, uninterrupted sweep has %d", round, len(combined), len(want))
					}
					for i, u := range combined {
						unitsEqual(t, "resumed stream", u, want[i])
					}
					if sum.Complete {
						if len(combined) != len(want) || sum.Captured != len(want) {
							t.Fatalf("complete resumed sweep captured %d/%d units", len(combined), len(want))
						}
						if sum.SweepInsts != whole.SweepInsts {
							t.Fatalf("resumed sweep accounts %d insts, uninterrupted %d", sum.SweepInsts, whole.SweepInsts)
						}
						if rs != nil && sum.ResumedAt != rs.SweepInsts {
							t.Fatalf("ResumedAt %d, journal frame at %d", sum.ResumedAt, rs.SweepInsts)
						}
						// The journal is gone once the sweep completed, and the
						// committed entry holds the whole sweep.
						if left, err := store.LoadPartial(key); err != nil || left != nil {
							t.Fatalf("journal survived completion (rs=%v err=%v)", left != nil, err)
						}
						if set, err := store.Load(key); err != nil || set == nil || len(set.Units) != len(want) {
							t.Fatalf("committed entry after resume: set=%v err=%v", set != nil, err)
						}
						break
					}
					if rs, err = store.LoadPartial(key); err != nil {
						t.Fatal(err)
					}
					if rs == nil {
						t.Fatalf("round %d: interrupted sweep left no usable journal", round)
					}
					// The suspended journal holds every unit the sweep
					// accepted before the cut.
					if len(rs.Units) != len(combined)-1 {
						t.Fatalf("round %d: journal holds %d units, the sweep accepted %d", round, len(rs.Units), len(combined)-1)
					}
				}
			}
		})
	}
}

// TestResumeRejectsInconsistentJournal: a journal that disagrees with
// the plan must fail the resume loudly — never continue from a wrong
// position.
func TestResumeRejectsInconsistentJournal(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	journalSweep(t, p, cfg, params, store, key, nil, 5)
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("no journal to corrupt (rs=%v err=%v)", rs != nil, err)
	}
	rs.Units[0].Index++ // journal from a different plan geometry
	params.Resume = rs
	_, err = checkpoint.CaptureStream(context.Background(), p, cfg, params,
		func(*checkpoint.Unit) bool { t.Fatal("emitted a unit from an inconsistent journal"); return false })
	if err == nil {
		t.Fatal("inconsistent journal resumed without error")
	}
}

// TestResumeCancelledWhileFeeding: a cancellation that lands while the
// journaled units are being fed ends the resumed sweep with ctx.Err(),
// as one anywhere in CaptureStream does — whether the sweep still has
// units to capture or the journal already covers every boundary — so
// no caller takes the cut stream for a finished or early-stopped sweep.
func TestResumeCancelledWhileFeeding(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true}
	key := checkpoint.KeyFor(p, cfg, params)
	// journal suspends a sweep cut after stopAfter units (0: never) and
	// loads the journal it left.
	journal := func(stopAfter int) (*checkpoint.ResumeState, *checkpoint.Summary) {
		t.Helper()
		store, err := checkpoint.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w, err := store.Writer(key, p.Length/params.U, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		sum, err := checkpoint.CaptureResumable(context.Background(), p, cfg, params, w, func(*checkpoint.Unit) bool {
			n++
			return stopAfter == 0 || n < stopAfter
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Suspend(); err != nil {
			t.Fatal(err)
		}
		rs, err := store.LoadPartial(key)
		if err != nil || rs == nil {
			t.Fatalf("no journal (rs=%v err=%v)", rs != nil, err)
		}
		return rs, sum
	}
	mid, _ := journal(5)
	whole, sum := journal(0)
	if len(whole.Units) != sum.Captured {
		t.Fatalf("whole-sweep journal holds %d of %d units", len(whole.Units), sum.Captured)
	}
	for _, tc := range []struct {
		name string
		rs   *checkpoint.ResumeState
	}{{"mid-sweep", mid}, {"whole sweep", whole}} {
		ctx, cancel := context.WithCancel(context.Background())
		params := params
		params.Resume = tc.rs
		fed := 0
		sum, err := checkpoint.CaptureResumable(ctx, p, cfg, params, checkpoint.BufferWriter(key, p.Length/params.U, 1, nil),
			func(*checkpoint.Unit) bool {
				fed++
				cancel()
				return true
			})
		cancel()
		if !errors.Is(err, context.Canceled) || sum == nil || sum.Complete || fed != 1 {
			t.Fatalf("%s journal cancelled while fed: err=%v complete=%v fed=%d, want context.Canceled after one unit",
				tc.name, err, sum != nil && sum.Complete, fed)
		}
	}
}

// TestPartialCorruptionDegrades sweeps truncation points and byte flips
// across two journals: a sweep interrupted mid-way, and the
// frame-bearing entry a journaled sweep commits, which is a journal
// too once cut. Truncation — the crash shape the journal exists for —
// must degrade to an earlier frame whose units are bit-identical to the
// uninterrupted sweep's prefix, or to no journal at all; never to a
// wrong resume. Cut at a frame boundary, the entry must be a store miss
// and, as a journal, resume from exactly that frame to the
// uninterrupted sweep bit for bit. Byte flips must never panic: they
// load into a structurally sound prefix (whose units all materialize)
// or degrade to nothing, as in the committed-entry corruption suite.
func TestPartialCorruptionDegrades(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	whole := capture(t, p, cfg, params)
	want := whole.Units

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	journalSweep(t, p, cfg, params, store, key, nil, len(want)-2)
	path := filepath.Join(dir, key.Hash()+".partial")
	entryPath := filepath.Join(dir, key.Hash()+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry, bounds := journaledEntry(t, p, cfg, params, key)

	checkPrefix := func(what string, rs *checkpoint.ResumeState) {
		t.Helper()
		if len(rs.Units) == 0 || len(rs.Units) > len(want) {
			t.Fatalf("%s: journal has %d units, sweep has %d", what, len(rs.Units), len(want))
		}
		for i, u := range rs.Units {
			unitsEqual(t, what, u, want[i])
		}
		if last := rs.Units[len(rs.Units)-1]; rs.SweepInsts != last.Arch.Count {
			t.Fatalf("%s: frame position %d, last unit launch %d", what, rs.SweepInsts, last.Arch.Count)
		}
	}
	// resumes finishes the sweep from rs and requires the whole stream
	// to be the uninterrupted sweep's, bit for bit.
	resumes := func(what string, rs *checkpoint.ResumeState) {
		t.Helper()
		units, sum := journalSweep(t, p, cfg, params, store, key, rs, 0)
		if !sum.Complete || len(units) != len(want) {
			t.Fatalf("%s: resumed sweep produced %d units (complete %v), want %d", what, len(units), sum.Complete, len(want))
		}
		for i, u := range units {
			unitsEqual(t, what, u, want[i])
		}
	}

	// The intact journal must be a clean prefix.
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("intact journal unusable (rs=%v err=%v)", rs != nil, err)
	}
	checkPrefix("intact", rs)
	full := len(rs.Units)

	// Truncations at 50 points of the interrupted journal: every cut
	// degrades to an earlier frame (or none), still a bit-identical
	// prefix.
	sawShorter := false
	for i := 1; i < 50; i++ {
		cut := len(data) * i / 50
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := store.LoadPartial(key)
		if err != nil {
			t.Fatalf("truncation at %d bytes: %v", cut, err)
		}
		if rs == nil {
			continue
		}
		checkPrefix("truncated", rs)
		if len(rs.Units) < full {
			sawShorter = true
		}
	}
	if !sawShorter {
		t.Fatal("no truncation point degraded to an earlier frame — the sweep is not exercising the prefix recovery")
	}

	// The frame-bearing entry cut at every frame boundary: a miss as an
	// entry, and as a journal the exact frame, which resumes.
	for _, b := range bounds {
		if err := os.WriteFile(entryPath, entry[:b.at], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("entry cut at frame %d: (set=%v err=%v), want miss", b.units, got != nil, err)
		}
		if err := os.WriteFile(path, entry[:b.at], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := store.LoadPartial(key)
		if err != nil || rs == nil || len(rs.Units) != b.units {
			t.Fatalf("entry cut at the frame of %d units: journal %v (err %v)", b.units, rs != nil, err)
		}
		checkPrefix("entry cut at a frame", rs)
		resumes("entry cut at a frame", rs)
	}

	// Byte flips at 60 points of the interrupted journal: no panics,
	// every survivor materializes.
	for i := 0; i < 60; i++ {
		off := 12 + (len(data)-13)*i/60
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := store.LoadPartial(key)
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		if rs == nil {
			continue
		}
		for _, u := range rs.Units {
			if _, err := u.Materialize(); err != nil {
				t.Fatalf("flip at %d: journal unit %d failed to materialize: %v", off, u.Index, err)
			}
		}
	}

	// Restore the intact journal and finish the sweep from it: the
	// corruption sweep must not have poisoned the real resume.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err = store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("intact journal unusable after sweep (rs=%v err=%v)", rs != nil, err)
	}
	resumes("post-corruption resume", rs)
}
