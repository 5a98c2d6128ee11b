package program_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestSuiteExactLength verifies the generator's core invariant: the
// Length computed by construction equals the actual dynamic instruction
// count measured by functional execution, for every suite workload.
func TestSuiteExactLength(t *testing.T) {
	for _, spec := range program.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := program.Generate(spec, 300_000)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			cpu := functional.New(p)
			n, err := cpu.RunToCompletion()
			if err != nil {
				t.Fatalf("RunToCompletion: %v", err)
			}
			if n != p.Length {
				t.Errorf("dynamic length = %d, program.Length = %d (delta %d)",
					n, p.Length, int64(n)-int64(p.Length))
			}
			if p.Length < 150_000 || p.Length > 450_000 {
				t.Errorf("Length %d far from target 300000", p.Length)
			}
		})
	}
}

// TestGenerateDeterministic checks that generation is reproducible.
func TestGenerateDeterministic(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	p1 := program.MustGenerate(spec, 100_000)
	p2 := program.MustGenerate(spec, 100_000)
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("code lengths differ: %d vs %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("code differs at %d: %v vs %v", i, p1.Code[i], p2.Code[i])
		}
	}
	if len(p1.Segs) != len(p2.Segs) {
		t.Fatalf("segment counts differ")
	}
	for i := range p1.Segs {
		if p1.Segs[i].Addr != p2.Segs[i].Addr || !bytes.Equal(p1.Segs[i].Data, p2.Segs[i].Data) {
			t.Fatalf("segment %d differs", i)
		}
	}
}

// TestSaveLoadRoundTrip checks program serialization.
func TestSaveLoadRoundTrip(t *testing.T) {
	spec, err := program.ByName("parserx")
	if err != nil {
		t.Fatal(err)
	}
	p := program.MustGenerate(spec, 50_000)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := program.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.Name != p.Name || q.Entry != p.Entry || q.Length != p.Length {
		t.Errorf("metadata mismatch: %+v vs %+v", q, p)
	}
	if len(q.Code) != len(p.Code) {
		t.Fatalf("code length mismatch")
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Fatalf("code differs at %d", i)
		}
	}
}

// TestValidateCatchesBadTarget ensures Validate rejects out-of-range
// control targets.
func TestValidateCatchesBadTarget(t *testing.T) {
	p := &program.Program{
		Name: "bad",
		Code: []isa.Inst{{Op: isa.OpJmp, Target: 99}},
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range jump target")
	}
}

// TestScaling verifies Generate tracks widely varying target lengths.
func TestScaling(t *testing.T) {
	spec, err := program.ByName("eonx")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []uint64{60_000, 1_000_000, 5_000_000} {
		p := program.MustGenerate(spec, target)
		ratio := float64(p.Length) / float64(target)
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("target %d: got length %d (ratio %.2f)", target, p.Length, ratio)
		}
	}
}

// TestCacheConcurrentGet: parallel lookups of one (name, length) share
// a single generation and return the identical *Program; a different
// length is a different workload, and an unknown name fails without
// poisoning the cache.
func TestCacheConcurrentGet(t *testing.T) {
	var c program.Cache
	const n = 8
	got := make([]*program.Program, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Get("gzipx", 50_000)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("lookup %d returned a different *Program than lookup 0", i)
		}
	}
	if other, err := c.Get("gzipx", 60_000); err != nil || other == got[0] {
		t.Fatalf("a different length shared the cached program (err %v)", err)
	}
	if _, err := c.Get("nosuchx", 50_000); err == nil {
		t.Fatal("unknown workload generated")
	}
	if again, err := c.Get("gzipx", 50_000); err != nil || again != got[0] {
		t.Fatalf("cached program not reused after other lookups (err %v)", err)
	}
}
