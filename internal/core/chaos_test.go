package core

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/par"
)

// chaosPlan builds a graph big enough to have many supernodes, so
// cancellation and panic injection land mid-factorization rather than
// after the interesting work is already done.
func chaosPlan(t *testing.T) *Plan {
	t.Helper()
	g := gen.RoadNetwork(20, 20, 0.3, 97)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestChaosFactorCancel(t *testing.T) {
	defer fault.Reset()
	// Stretch each supernode elimination so the factorization is slow
	// enough that a prompt return can only come from the ctx check, not
	// from the work simply finishing first.
	if err := fault.Enable("core.factor.eliminate", "sleep=20ms"); err != nil {
		t.Fatal(err)
	}
	plan := chaosPlan(t)
	for _, threads := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		f, err := NewFactorCtx(ctx, plan, threads)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: got (%v, %v), want context.Canceled", threads, f, err)
		}
		// The full factorization would take sleep × supernodes — well over
		// a second on this plan. Cancellation must cut that short.
		if elapsed > 2*time.Second {
			t.Errorf("threads=%d: cancellation took %v, not prompt", threads, elapsed)
		}
	}
}

func TestChaosSolveCancel(t *testing.T) {
	defer fault.Reset()
	if err := fault.Enable("core.eliminate", "sleep=20ms"); err != nil {
		t.Fatal(err)
	}
	plan := chaosPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := plan.SolveCtx(ctx)
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx error = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
	// The profiled entry point honors the plan's default context.
	cancelled := *plan
	cancelled.Opts.Context = ctx
	if _, _, err := cancelled.SolveProfiled(4, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveProfiled error = %v, want context.Canceled", err)
	}
}

func TestChaosFactorPanicAttribution(t *testing.T) {
	defer fault.Reset()
	// Fire on the 5th supernode so the panic comes from a worker that is
	// genuinely mid-DAG, not the first node on the caller goroutine.
	if err := fault.Enable("core.factor.eliminate", "panic@5"); err != nil {
		t.Fatal(err)
	}
	plan := chaosPlan(t)
	// The same attribution must hold for the dense solve's sequential
	// profiled path, which runs every supernode on the caller goroutine.
	runs := []struct {
		point   string
		threads int
		run     func()
	}{
		{"core.factor.eliminate", 1, func() { _, _ = NewFactorCtx(context.Background(), plan, 1) }},
		{"core.factor.eliminate", 4, func() { _, _ = NewFactorCtx(context.Background(), plan, 4) }},
		{"core.eliminate", 1, func() { _, _, _ = plan.SolveProfiled(1, true) }},
	}
	for _, r := range runs {
		fault.Reset()
		if err := fault.Enable(r.point, "panic@5"); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatalf("%s threads=%d: did not panic", r.point, r.threads)
				}
				tp, ok := rec.(*par.TaskPanic)
				if !ok {
					t.Fatalf("%s threads=%d: panic value %T, want *par.TaskPanic", r.point, r.threads, rec)
				}
				if tp.Node < 0 {
					t.Errorf("%s threads=%d: panic lost node identity: %+v", r.point, r.threads, tp)
				}
				if !strings.Contains(tp.Error(), "injected panic") {
					t.Errorf("%s threads=%d: panic message %q lost the cause", r.point, r.threads, tp.Error())
				}
				if len(tp.Stack) == 0 {
					t.Errorf("%s threads=%d: panic lost the worker stack", r.point, r.threads)
				}
			}()
			r.run()
		}()
	}
}

func TestChaosCheckpointTruncated(t *testing.T) {
	plan := chaosPlan(t)
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) - 8, len(full) / 3} {
		if _, err := ReadFactor(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation to %d of %d bytes accepted", cut, len(full))
		}
	}
}

func TestChaosCheckpointBitFlip(t *testing.T) {
	plan := chaosPlan(t)
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip single bits at positions spread across the checksummed body
	// (skip the 8-byte unhashed header, whose corruption is caught by the
	// magic/version checks instead).
	for _, pos := range []int{8, 16, len(full) / 2, len(full) - 9} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x40
		f2, err := ReadFactor(bytes.NewReader(corrupt))
		if err == nil {
			t.Errorf("bit flip at %d accepted (factor %v)", pos, f2 != nil)
		}
	}
	// The pristine bytes must still load — the detector has no false
	// positives on this input.
	if _, err := ReadFactor(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestChaosCheckpointShortWrite(t *testing.T) {
	defer fault.Reset()
	plan := chaosPlan(t)
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	var probe bytes.Buffer
	if _, err := f.WriteTo(&probe); err != nil {
		t.Fatal(err)
	}
	// Cut the write off at half the real size: WriteTo must surface the
	// error, and whatever made it out must be rejected by ReadFactor.
	if err := fault.Enable("core.factorio.write", "shortwrite="+strconv.Itoa(probe.Len()/2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err == nil {
		t.Fatal("short write not surfaced by WriteTo")
	}
	fault.Reset()
	if _, err := ReadFactor(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("short-written checkpoint accepted by ReadFactor")
	}
}

func TestChaosSaveLoadFactorFile(t *testing.T) {
	plan := chaosPlan(t)
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/factor.sfwf"
	if err := SaveFactorFile(path, f); err != nil {
		t.Fatal(err)
	}
	f2, err := LoadFactorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < plan.G.N; src += 41 {
		a, b := f.SSSP(src), f2.SSSP(src)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("SSSP(%d)[%d] differs after file round trip", src, v)
			}
		}
	}
	// A save that fails mid-write must leave the previous checkpoint
	// untouched under the final name.
	defer fault.Reset()
	if err := fault.Enable("core.factorio.write", "shortwrite=64"); err != nil {
		t.Fatal(err)
	}
	if err := SaveFactorFile(path, f); err == nil {
		t.Fatal("failed save reported success")
	}
	fault.Reset()
	if _, err := LoadFactorFile(path); err != nil {
		t.Fatalf("old checkpoint damaged by failed save: %v", err)
	}
}
