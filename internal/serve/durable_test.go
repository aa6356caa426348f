package serve

// Crash-recovery contract of the durable serving state: whatever an
// acknowledged update committed must come back after a restart at the
// exact same generation with bit-identical distances; whatever a crash
// tore mid-write must disappear cleanly (torn journal tail, failed
// checkpoint rename); and a journal-append failure must fail the update
// while the old snapshot keeps serving.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

func durableGraph() *graph.Graph { return gen.RoadNetwork(10, 10, 0.3, 7) }

func openDurableT(t *testing.T, dir string, g *graph.Graph, opts DurableOptions) *Durable {
	t.Helper()
	opts.Dir = dir
	opts.NoSync = true
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	d, err := OpenDurable(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bootDurable opens (or recovers) the state dir and serves from it,
// exactly as apspserve -statedir does.
func bootDurable(t *testing.T, dir string, g *graph.Graph) (*Server, *httptest.Server, *Durable) {
	t.Helper()
	d := openDurableT(t, dir, g, DurableOptions{})
	s := New(d.Factor(), nil, g.N, Options{Durable: d, InitialGeneration: d.BootGeneration()})
	srv := httptest.NewServer(s.Handler())
	return s, srv, d
}

// ssspRows snapshots full distance rows for a fixed source set — the
// bit-identical yardstick for recovery.
func ssspRows(t *testing.T, url string, sources []int) []string {
	t.Helper()
	rows := make([]string, len(sources))
	for i, src := range sources {
		rows[i] = getBody(t, fmt.Sprintf("%s/sssp?src=%d", url, src))
	}
	return rows
}

var recoverySources = []int{0, 17, 42, 63, 99}

// TestDurableCrashRecoveryReplaysJournal is the core round trip: cold
// boot, two committed updates (journaled, not checkpointed), "crash"
// (close without checkpoint), recover. The recovered server must be at
// the exact committed generation with bit-identical distance rows.
func TestDurableCrashRecoveryReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph()
	_, srv, d := bootDurable(t, dir, g)
	if d.WarmBoot() || d.BootGeneration() != 1 {
		t.Fatalf("first boot: warm=%v gen=%d, want cold at 1", d.WarmBoot(), d.BootGeneration())
	}

	e0, e1 := g.Edges()[0], g.Edges()[1]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e0.U, V: e0.V, W: e0.W * 0.1}},
	}, 200)
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e1.U, V: e1.V, W: e1.W * 0.2}},
	}, 200)
	if gen := generationOf(t, srv.URL); gen != 3 {
		t.Fatalf("generation after two updates = %v, want 3", gen)
	}
	want := ssspRows(t, srv.URL, recoverySources)

	// Crash: no checkpoint ran (the checkpointer never started), so
	// recovery must come entirely from checkpoint(gen 1) + journal replay.
	srv.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	_, srv2, d2 := bootDurable(t, dir, g)
	defer srv2.Close()
	defer d2.Close()
	if !d2.WarmBoot() || d2.BootGeneration() != 3 {
		t.Fatalf("recovery: warm=%v gen=%d, want warm at 3", d2.WarmBoot(), d2.BootGeneration())
	}
	if n := d2.Snapshot(3).ReplayedBatches; n != 2 {
		t.Fatalf("replayed %d batches, want 2", n)
	}
	if gen := generationOf(t, srv2.URL); gen != 3 {
		t.Fatalf("recovered generation = %v, want 3", gen)
	}
	got := ssspRows(t, srv2.URL, recoverySources)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sssp row %d differs after recovery", recoverySources[i])
		}
	}

	// Recovery re-checkpointed, so a second restart replays nothing.
	srv2.Close()
	d2.Close()
	_, srv3, d3 := bootDurable(t, dir, g)
	defer srv3.Close()
	defer d3.Close()
	if d3.BootGeneration() != 3 || d3.Snapshot(3).ReplayedBatches != 0 {
		t.Fatalf("third boot: gen=%d replayed=%d, want 3 and 0",
			d3.BootGeneration(), d3.Snapshot(3).ReplayedBatches)
	}
}

// TestChaosDurableJournalSyncFailure: a journal append that cannot
// reach disk must fail the update before the swap — generation frozen,
// old snapshot serving bit-for-bit.
func TestChaosDurableJournalSyncFailure(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	g := durableGraph()
	_, srv, d := bootDurable(t, dir, g)
	defer srv.Close()
	defer d.Close()

	e := g.Edges()[0]
	before := ssspRows(t, srv.URL, recoverySources)
	if err := fault.Enable("wal.sync", "error"); err != nil {
		t.Fatal(err)
	}
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e.U, V: e.V, W: e.W * 0.1}},
	}, 500)
	fault.Reset()
	if gen := generationOf(t, srv.URL); gen != 1 {
		t.Fatalf("generation moved after failed journal append: %v", gen)
	}
	after := ssspRows(t, srv.URL, recoverySources)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("sssp row %d changed after failed journal append", recoverySources[i])
		}
	}
	// The rolled-back append must not poison the journal for the next one.
	out := postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e.U, V: e.V, W: e.W * 0.1}},
	}, 200)
	if out["generation"].(float64) != 2 {
		t.Fatalf("post-fault update response %v", out)
	}
}

// TestChaosDurableTornJournalTail: an update whose journal frame tears
// mid-write (acknowledged, then SIGKILL before the bytes landed) is the
// one legal lost-ack window. Recovery must truncate the torn frame and
// come back at the last durable generation.
func TestChaosDurableTornJournalTail(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	g := durableGraph()
	_, srv, d := bootDurable(t, dir, g)

	e0, e1 := g.Edges()[0], g.Edges()[1]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e0.U, V: e0.V, W: e0.W * 0.1}},
	}, 200)
	durableRows := ssspRows(t, srv.URL, recoverySources)

	// Arm a silent tear: the next append reports success but only 10
	// bytes land.
	if err := fault.Enable("wal.append", "torn=10"); err != nil {
		t.Fatal(err)
	}
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e1.U, V: e1.V, W: e1.W * 0.2}},
	}, 200)
	fault.Reset()
	if gen := generationOf(t, srv.URL); gen != 3 {
		t.Fatalf("in-memory generation after torn append = %v, want 3", gen)
	}
	srv.Close()
	d.Close() // crash before the torn bytes could ever be completed

	_, srv2, d2 := bootDurable(t, dir, g)
	defer srv2.Close()
	defer d2.Close()
	if d2.BootGeneration() != 2 {
		t.Fatalf("recovered generation = %d, want 2 (torn batch lost)", d2.BootGeneration())
	}
	got := ssspRows(t, srv2.URL, recoverySources)
	for i := range durableRows {
		if got[i] != durableRows[i] {
			t.Fatalf("sssp row %d differs from last durable state", recoverySources[i])
		}
	}
}

// TestChaosDurableCheckpointRenameFailure: a checkpoint that fails at
// the rename must leave the previous checkpoint and the journal intact,
// so recovery still reaches the committed generation by replay.
func TestChaosDurableCheckpointRenameFailure(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	g := durableGraph()
	s, srv, d := bootDurable(t, dir, g)

	e := g.Edges()[0]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e.U, V: e.V, W: e.W * 0.1}},
	}, 200)
	want := ssspRows(t, srv.URL, recoverySources)

	if err := fault.Enable("core.factorio.rename", "error"); err != nil {
		t.Fatal(err)
	}
	if !s.reloading.CompareAndSwap(false, true) {
		t.Fatal("reloading CAS busy")
	}
	err := d.Checkpoint(s.generation.Load())
	s.reloading.Store(false)
	fault.Reset()
	if err == nil {
		t.Fatal("checkpoint with failing rename reported success")
	}
	if st := d.Snapshot(2); st.CheckpointFailures == 0 || st.JournalRecords == 0 {
		t.Fatalf("failed checkpoint must retain the journal: %+v", st)
	}
	srv.Close()
	d.Close()

	_, srv2, d2 := bootDurable(t, dir, g)
	defer srv2.Close()
	defer d2.Close()
	if d2.BootGeneration() != 2 {
		t.Fatalf("recovered generation = %d, want 2", d2.BootGeneration())
	}
	got := ssspRows(t, srv2.URL, recoverySources)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sssp row %d differs after checkpoint-failure recovery", recoverySources[i])
		}
	}
}

// TestDurableApplyGenerationWindow covers the explicit-generation gate
// the anti-entropy stream depends on: idempotent skip at-or-below the
// current generation, 409 on a gap.
func TestDurableApplyGenerationWindow(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph()
	_, srv, d := bootDurable(t, dir, g)
	defer srv.Close()
	defer d.Close()

	e := g.Edges()[0]
	batch := []core.EdgeDelta{{U: e.U, V: e.V, W: e.W * 0.1}}
	out := postUpdate(t, srv.URL, updateRequest{Edges: batch, From: 1, Gen: 2}, 200)
	if out["applied"] != true || out["generation"].(float64) != 2 {
		t.Fatalf("explicit-generation apply response %v", out)
	}
	// A retry of the same batch is skipped, not re-applied.
	out = postUpdate(t, srv.URL, updateRequest{Edges: batch, From: 1, Gen: 2}, 200)
	if out["skipped"] != true || out["generation"].(float64) != 2 {
		t.Fatalf("replayed batch response %v", out)
	}
	// A batch from the future is a generation gap: refuse, don't guess.
	postUpdate(t, srv.URL, updateRequest{Edges: batch, From: 5, Gen: 6}, 409)
	if gen := generationOf(t, srv.URL); gen != 2 {
		t.Fatalf("generation after gap rejection = %v, want 2", gen)
	}
}

// TestDurableResyncFromDonorOverlay drives the anti-entropy fallback at
// the worker level: a peer's /admin/overlay fed back as mode "resync"
// must reproduce the donor's distances exactly at the declared
// generation, durably.
func TestDurableResyncFromDonorOverlay(t *testing.T) {
	g := durableGraph()
	_, donorSrv, donorD := bootDurable(t, t.TempDir(), g)
	defer donorSrv.Close()
	defer donorD.Close()

	e0, e1 := g.Edges()[0], g.Edges()[1]
	postUpdate(t, donorSrv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e0.U, V: e0.V, W: e0.W * 0.1}},
	}, 200)
	postUpdate(t, donorSrv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e1.U, V: e1.V, W: e1.W * 0.2}},
	}, 200)
	want := ssspRows(t, donorSrv.URL, recoverySources)

	ov := getJSON(t, donorSrv.URL+"/admin/overlay", 200)
	if ov["generation"].(float64) != 3 {
		t.Fatalf("donor overlay generation %v, want 3", ov["generation"])
	}
	edges := make([]core.EdgeDelta, 0, 2)
	for _, raw := range ov["edges"].([]any) {
		m := raw.(map[string]any)
		edges = append(edges, core.EdgeDelta{
			U: int(m["u"].(float64)), V: int(m["v"].(float64)), W: m["w"].(float64),
		})
	}
	if len(edges) != 2 {
		t.Fatalf("donor overlay has %d edges, want 2", len(edges))
	}

	laggardDir := t.TempDir()
	_, lagSrv, lagD := bootDurable(t, laggardDir, g)
	out := postUpdate(t, lagSrv.URL, updateRequest{Mode: "resync", Gen: 3, Edges: edges}, 200)
	if out["resynced"] != true || out["generation"].(float64) != 3 {
		t.Fatalf("resync response %v", out)
	}
	got := ssspRows(t, lagSrv.URL, recoverySources)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sssp row %d differs from donor after resync", recoverySources[i])
		}
	}
	// The 200 promised durability: a restart comes back at generation 3.
	lagSrv.Close()
	lagD.Close()
	_, lagSrv2, lagD2 := bootDurable(t, laggardDir, g)
	defer lagSrv2.Close()
	defer lagD2.Close()
	if lagD2.BootGeneration() != 3 {
		t.Fatalf("resynced worker recovered at generation %d, want 3", lagD2.BootGeneration())
	}
	got = ssspRows(t, lagSrv2.URL, recoverySources)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sssp row %d differs from donor after resync + restart", recoverySources[i])
		}
	}
}

// TestDurableCheckpointerCompactsJournal: the background checkpointer
// must snapshot once the journal passes its record threshold and
// truncate the replay log to nothing.
func TestDurableCheckpointerCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph()
	d := openDurableT(t, dir, g, DurableOptions{
		CheckpointRecords:  1,
		CheckpointInterval: 5 * time.Millisecond,
	})
	defer d.Close()
	s := New(d.Factor(), nil, g.N, Options{Durable: d, InitialGeneration: d.BootGeneration()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//lint:ignore nakedgo test goroutine, exits with the cancelled ctx
	go s.RunCheckpointer(ctx)

	e := g.Edges()[0]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e.U, V: e.V, W: e.W * 0.1}},
	}, 200)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.Snapshot(s.generation.Load())
		if st.LastCheckpointGeneration == 2 && st.JournalRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never compacted the journal: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := s.Metrics()
	if m.Durability == nil || m.Durability.Checkpoints == 0 {
		t.Fatalf("metrics missing durability counters: %+v", m.Durability)
	}
}

// TestDurableCheckpointDoesNotBlockCommit: a background checkpoint
// stalled in its fsync must not hold the swap serialization, so a 2PC
// prepare→commit issued during the stall succeeds instead of being
// refused with 409 (a refused commit takes a worker out of the
// coordinator's rotation). The stalled snapshot must not overwrite the
// later one either: the checkpoint ends at the committed generation.
func TestDurableCheckpointDoesNotBlockCommit(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph()
	d := openDurableT(t, dir, g, DurableOptions{
		CheckpointRecords:  1,
		CheckpointInterval: 5 * time.Millisecond,
	})
	defer d.Close()
	s := New(d.Factor(), nil, g.N, Options{Durable: d, InitialGeneration: d.BootGeneration()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer fault.Reset()
	if err := fault.Enable("core.factorio.sync", "sleep=1s@1"); err != nil {
		t.Fatal(err)
	}
	bootCkpts := d.checkpoints.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//lint:ignore nakedgo test goroutine, exits with the cancelled ctx
	go s.RunCheckpointer(ctx)

	// One journaled update crosses the record threshold; wait until the
	// checkpointer is parked inside the stalled sync.
	e0, e1 := g.Edges()[0], g.Edges()[1]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e0.U, V: e0.V, W: e0.W * 0.1}},
	}, 200)
	deadline := time.Now().Add(5 * time.Second)
	for fault.Visits("core.factorio.sync") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never started")
		}
		time.Sleep(time.Millisecond)
	}

	postUpdate(t, srv.URL, updateRequest{
		Mode: "prepare", Txn: "during-ckpt",
		Edges: []core.EdgeDelta{{U: e1.U, V: e1.V, W: e1.W * 0.1}},
	}, 200)
	out := postUpdate(t, srv.URL, updateRequest{Mode: "commit", Txn: "during-ckpt"}, 200)
	if out["generation"].(float64) != 3 {
		t.Fatalf("commit response %v, want generation 3", out)
	}
	if n := d.checkpoints.Load(); n != bootCkpts {
		t.Fatalf("checkpoint finished before the commit (%d → %d): the stall did not overlap it", bootCkpts, n)
	}

	for {
		st := d.Snapshot(s.generation.Load())
		if st.LastCheckpointGeneration == 3 && st.JournalRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never caught up with generation 3: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, meta, err := core.LoadFactorFileMeta(filepath.Join(dir, CheckpointFile))
	if err != nil || meta.Generation != 3 {
		t.Fatalf("checkpoint on disk: generation %d, err %v; want 3", meta.Generation, err)
	}
}

// TestDurableCommitWaitsOutCheckpointCapture: the background
// checkpointer holds the swap serialization while it captures its
// snapshot. A 2PC commit arriving during the capture must wait it out
// and succeed, not be refused with 409 — a refused commit takes the
// worker out of the coordinator's rotation, and at 10 updates/s the
// catch-up stream then trails the live one for seconds.
func TestDurableCommitWaitsOutCheckpointCapture(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph()
	d := openDurableT(t, dir, g, DurableOptions{
		CheckpointRecords:  1,
		CheckpointInterval: 5 * time.Millisecond,
	})
	defer d.Close()
	s := New(d.Factor(), nil, g.N, Options{Durable: d, InitialGeneration: d.BootGeneration()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer fault.Reset()

	// One journaled update puts the journal over the record threshold;
	// then a transaction is prepared before the checkpointer starts.
	e0, e1 := g.Edges()[0], g.Edges()[1]
	postUpdate(t, srv.URL, updateRequest{
		Edges: []core.EdgeDelta{{U: e0.U, V: e0.V, W: e0.W * 0.1}},
	}, 200)
	postUpdate(t, srv.URL, updateRequest{
		Mode: "prepare", Txn: "during-capture",
		Edges: []core.EdgeDelta{{U: e1.U, V: e1.V, W: e1.W * 0.1}},
	}, 200)

	if err := fault.Enable("serve.checkpoint.capture", "sleep=500ms@1"); err != nil {
		t.Fatal(err)
	}
	bootCkpts := d.checkpoints.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//lint:ignore nakedgo test goroutine, exits with the cancelled ctx
	go s.RunCheckpointer(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for fault.Visits("serve.checkpoint.capture") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never started its capture")
		}
		time.Sleep(time.Millisecond)
	}
	if n := d.checkpoints.Load(); n != bootCkpts {
		t.Fatalf("checkpoint finished before the commit (%d → %d): the stall did not overlap it", bootCkpts, n)
	}
	out := postUpdate(t, srv.URL, updateRequest{Mode: "commit", Txn: "during-capture"}, 200)
	if out["generation"].(float64) != 3 {
		t.Fatalf("commit response %v, want generation 3", out)
	}

	for {
		st := d.Snapshot(s.generation.Load())
		if st.LastCheckpointGeneration == 3 && st.JournalRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never caught up with generation 3: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
