package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/sim"
)

// span is one timed call into a layer. Spans are kept in memory and
// written out when the run ends. No span encloses another, so a span's
// duration is its self time.
type span struct {
	Name  string `json:"name"`
	Lane  int    `json:"lane"` // goroutine that made the call
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, lane int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Lane: lane, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// self returns the summed self time of the spans of every name.
func (t *tracer) self() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers holds what the traced run measures from the layer calls.
type layers struct {
	sweepInsts        uint64 // instructions the capture sweep executed
	units             int
	replayInsts       uint64 // detailed instructions of the mirror replay
	snapshotBytes     int    // in-memory warm and memory payload of the captured set
	storeBytes        int64  // size of the committed store entry
	mirrorWall        time.Duration
	mirrored          int // units compared with the engine's results
	mirrorMismatches  int
	aggregateMismatch bool
}

// traceLayers calls each layer's public entry point the way the engine
// does for one request of the workload, timing every call as a span. The
// units are replayed outside the engine ("mirror replay") with the same
// calls as the engine's replay, on as many goroutines as the request's
// replay workers, and each unit's cycles and energy must equal the
// engine's result for it.
func traceLayers(ctx context.Context, b *bench, tr *tracer, engine *sim.Report, storeDir string) (*layers, error) {
	prog, cfg := b.prog, b.cfg
	params := sim.ResolvePlan(b.request(nil), prog).CheckpointParams()
	key := checkpoint.KeyFor(prog, cfg, params)
	ly := &layers{}

	id := tr.begin("checkpoint.capture", 0)
	set, err := checkpoint.Capture(ctx, prog, cfg, params)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ly.units = len(set.Units)
	ly.sweepInsts = set.SweepInsts
	ly.snapshotBytes = set.WarmBytes() + set.MemBytes()

	id = tr.begin("checkpoint.store.save", 0)
	st, err := checkpoint.OpenStore(storeDir)
	if err == nil {
		err = st.Save(key, set)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if ly.storeBytes, err = largestFile(storeDir); err != nil {
		return nil, err
	}

	id = tr.begin("checkpoint.store.load", 0)
	st, err = checkpoint.OpenStore(storeDir)
	var loaded *checkpoint.Set
	if err == nil {
		loaded, err = st.Load(key)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if loaded == nil {
		return nil, fmt.Errorf("store entry %s did not load", key.Hash())
	}
	// A sweeping request replays the units as they are captured; a store
	// hit replays the set the store decodes.
	replaySet := set
	if !b.w.freshStore {
		replaySet = loaded
	}

	t0 := time.Now()
	results, err := mirrorReplay(prog, cfg, replaySet, tr)
	ly.mirrorWall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	want := engine.Result().Units
	ly.mirrored = max(len(results), len(want))
	ly.mirrorMismatches = ly.mirrored - min(len(results), len(want))
	for i, r := range results {
		if i < len(want) && r != want[i] {
			ly.mirrorMismatches++
		}
		ly.replayInsts += replaySet.Units[i].WarmLen() + unitSize
	}

	id = tr.begin("stats.aggregate", 0)
	agg := stats.NewStreamAggregator(sim.Alpha997, 0, 0)
	for i, r := range results {
		agg.Offer(uint64(i), stats.Obs{CPI: r.CPI, EPI: r.EPI})
	}
	cpi, epi := agg.CPISample().Estimate(sim.Alpha997), agg.EPISample().Estimate(sim.Alpha997)
	tr.end(id)
	ly.aggregateMismatch = cpi != engine.CPI || epi != engine.EPI

	// The forward pass the capture ran, without the capture, and its
	// interpretation alone: their differences give the capture's and the
	// warmer's self time.
	id = tr.begin("uarch.warm.forward", 0)
	wcpu := functional.New(prog)
	err = uarch.NewWarmer(uarch.NewMachine(cfg), cfg).ForwardBatch(wcpu, ly.sweepInsts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("functional.run", 0)
	fcpu := functional.New(prog)
	_, err = fcpu.Run(ly.sweepInsts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if wcpu.Count != ly.sweepInsts || fcpu.Count != ly.sweepInsts {
		return nil, fmt.Errorf("forward pass ran %d/%d instructions, the sweep %d", wcpu.Count, fcpu.Count, ly.sweepInsts)
	}

	var buf bytes.Buffer
	id = tr.begin("checkpoint.encode", 0)
	err = checkpoint.EncodeSet(&buf, key, set)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("checkpoint.decode", 0)
	_, err = checkpoint.DecodeSet(bytes.NewReader(buf.Bytes()), key)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return ly, nil
}

// mirrorReplay replays every unit of set with the engine's calls and
// returns the unit results in stream order.
func mirrorReplay(prog *sim.Workload, cfg sim.Config, set *checkpoint.Set, tr *tracer) ([]sim.UnitResult, error) {
	results := make([]sim.UnitResult, len(set.Units))
	errs := make([]error, replayWorkers)
	var wg sync.WaitGroup
	for lane := 0; lane < replayWorkers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < len(set.Units); i += replayWorkers {
				r, err := replayUnit(prog, cfg, set.Units[i], tr, lane)
				if err != nil {
					errs[lane] = err
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// replayUnit is the engine's per-unit replay, one span per layer.
func replayUnit(prog *sim.Workload, cfg sim.Config, cu *checkpoint.Unit, tr *tracer, lane int) (sim.UnitResult, error) {
	id := tr.begin("checkpoint.materialize", lane)
	launch, err := cu.Materialize()
	tr.end(id)
	if err != nil {
		return sim.UnitResult{}, err
	}

	id = tr.begin("uarch.core.setup", lane)
	machine := uarch.NewMachine(cfg)
	if launch.Warm != nil {
		if err = machine.Hier.Restore(launch.Warm.Hier); err == nil {
			err = machine.Pred.Restore(launch.Warm.Pred)
		}
	}
	cpu := functional.NewAt(prog, cu.Arch, launch.Mem.NewMemory())
	core := uarch.NewCore(machine)
	tr.end(id)
	if err != nil {
		return sim.UnitResult{}, err
	}

	w := cu.WarmLen()
	marks := []uarch.Mark{{At: w}, {At: w + unitSize}}
	id = tr.begin("uarch.core.run", lane)
	rs, err := core.Run(&uarch.Source{CPU: cpu}, w+unitSize, marks)
	tr.end(id)
	if err != nil {
		return sim.UnitResult{}, err
	}
	if rs.Insts < w+unitSize {
		return sim.UnitResult{}, fmt.Errorf("unit %d: program ended inside the unit", cu.Index)
	}
	cycles := marks[1].Cycle - marks[0].Cycle
	energy := marks[1].EnergyNJ - marks[0].EnergyNJ
	return sim.UnitResult{
		Index:    cu.Index,
		Cycles:   cycles,
		EnergyNJ: energy,
		CPI:      float64(cycles) / unitSize,
		EPI:      energy / unitSize,
	}, nil
}

// largestFile returns the size of the largest file in dir: the store's
// entry, beside its small index.
func largestFile(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n = max(n, fi.Size())
	}
	return n, nil
}
