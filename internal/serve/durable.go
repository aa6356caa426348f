package serve

// Durable serving state: a write-ahead update journal plus a v3 factor
// checkpoint, together giving crash recovery with exact generation
// accounting. The commit protocol orders the update path as
//
//	CanCommit (stale pre-check) -> journal Append (fsync'd: the commit
//	point) -> updater Commit (cannot fail) -> engine swap
//
// so a crash on either side of the append is safe: before it, the
// update simply never happened; after it, boot replay re-applies the
// batch (edge weights are absolute, so replay is idempotent).
//
// On boot, OpenDurable restores the newest valid checkpoint (validated
// against the graph digest — a checkpoint for a different graph is a
// deployment error, not something to load), reseeds the updater's edge
// map from the checkpoint overlay, and replays the journal tail through
// the updater to reach the last committed generation. A background
// checkpointer (Server.RunCheckpointer) re-snapshots once the journal
// passes a byte/record threshold and truncates the log, bounding both
// replay time and disk growth.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/wal"
)

// CheckpointFile is the checkpoint's file name inside the state dir.
const CheckpointFile = "factor.ckpt"

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Dir is the state directory holding the checkpoint and the journal
	// segments. Created if missing.
	Dir string
	// CheckpointBytes triggers a background checkpoint once the journal
	// exceeds this size (<= 0 selects 1 MiB).
	CheckpointBytes int64
	// CheckpointRecords triggers a background checkpoint once the
	// journal holds this many records (<= 0 selects 64).
	CheckpointRecords int
	// CheckpointInterval is the checkpointer's poll period (<= 0
	// selects 1s). Thresholds are checked per tick, so this bounds how
	// stale the trigger decision can be, not checkpoint frequency.
	CheckpointInterval time.Duration
	// Threads bounds factor (re)build parallelism (<= 0 uses GOMAXPROCS).
	Threads int
	// NoSync disables journal fsync (tests only: trades durability for
	// speed; crash-consistency claims no longer hold).
	NoSync bool
	// Logger receives recovery decisions; nil uses log.Default().
	Logger *log.Logger
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 1 << 20
	}
	if o.CheckpointRecords <= 0 {
		o.CheckpointRecords = 64
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = time.Second
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// Durable owns a server's persistent state: the journal, the checkpoint
// path, the base graph it all derives from, and the updater the journal
// replays through. Mutating methods (AppendCommitted, Checkpoint,
// Rebuild, ResyncFactor) must be serialized by the caller — the Server
// runs them under its reloading CAS, which already serializes every
// generation mutation. Checkpoint writes are additionally serialized on
// their own mutex, because the background checkpointer writes outside
// the CAS.
type Durable struct {
	opts    DurableOptions
	journal *wal.Journal
	ckpt    string
	digest  uint64
	base    *graph.Graph
	updater *core.FactorUpdater
	log     *log.Logger

	bootGen  uint64 // generation reached by boot recovery
	warmBoot bool   // checkpoint restored (vs cold rebuild)

	replayed       atomic.Uint64 // journal batches replayed at boot
	replayNS       atomic.Uint64
	checkpoints    atomic.Uint64
	checkpointErrs atomic.Uint64
	lastCkptGen    atomic.Uint64
	lastCkptNS     atomic.Int64 // wall clock of the last checkpoint

	ckptMu      sync.Mutex    // serializes checkpoint writes
	ckptSeq     atomic.Uint64 // capture order of checkpoint snapshots
	ckptStarted uint64        // newest capture whose write began; guarded by ckptMu
}

// checkpointSnap is the serving state captured for one checkpoint: a
// published (hence frozen) factor plus the meta block describing it.
type checkpointSnap struct {
	seq  uint64
	f    *core.Factor
	meta core.CheckpointMeta
}

// OpenDurable opens (or initializes) the state directory for graph g
// and runs crash recovery: restore the checkpoint, replay the journal
// tail, and leave the updater at the last committed generation. A
// missing, corrupt, legacy (v2), or wrong-graph checkpoint falls back
// to a fresh factorization; a journal that cannot bridge the restored
// generation is cleared (a sharded deployment's anti-entropy loop
// re-converges the worker, a standalone server simply starts fresh).
func OpenDurable(ctx context.Context, g *graph.Graph, opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: durable state needs a directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	j, err := wal.Open(opts.Dir, wal.Options{NoSync: opts.NoSync})
	if err != nil {
		return nil, err
	}
	d := &Durable{
		opts:    opts,
		journal: j,
		ckpt:    filepath.Join(opts.Dir, CheckpointFile),
		digest:  core.GraphDigest(g),
		base:    g,
		log:     opts.Logger,
	}
	if st := j.Stats(); st.TruncatedBytes > 0 || st.DroppedSegments > 0 {
		d.log.Printf("serve: journal recovered with %d torn byte(s) truncated, %d segment(s) dropped",
			st.TruncatedBytes, st.DroppedSegments)
	}
	if err := d.recover(ctx); err != nil {
		j.Close()
		return nil, err
	}
	return d, nil
}

// recover runs the boot state machine described on OpenDurable.
func (d *Durable) recover(ctx context.Context) error {
	f, gen := d.restoreCheckpoint()
	if f != nil {
		d.warmBoot = true
	} else {
		var err error
		if f, err = d.buildFresh(ctx); err != nil {
			return err
		}
		gen = 1
	}
	updater, err := core.NewFactorUpdater(d.base, f, core.UpdaterOptions{Threads: d.opts.Threads})
	if err != nil {
		return err
	}
	d.updater = updater
	if d.warmBoot {
		// The overlay reseeds the edge map to the checkpointed weights, so
		// replayed batches classify decreases/increases correctly.
		_, meta, err := core.LoadFactorFileMeta(d.ckpt)
		if err != nil {
			return err // raced away between restore and reseed
		}
		if err := updater.RestoreOverlay(meta.Overlay); err != nil {
			return fmt.Errorf("serve: checkpoint overlay rejected: %w", err)
		}
	}

	chain, ok := d.journal.ChainFrom(gen)
	if !ok && d.warmBoot {
		// The journal was compacted past the checkpoint's generation — a
		// lost checkpoint write followed by later compaction. The
		// checkpoint cannot be trusted to be bridgeable; rebuild cold and
		// try the chain from the bottom.
		d.log.Printf("serve: journal floor %d unreachable from checkpoint generation %d, rebuilding cold",
			d.journal.Floor(), gen)
		if f, err = d.buildFresh(ctx); err != nil {
			return err
		}
		if err := updater.Rebase(d.base, f); err != nil {
			return err
		}
		d.warmBoot = false
		gen = 1
		chain, ok = d.journal.ChainFrom(gen)
	}
	if !ok {
		// Even a cold build predates the journal's coverage floor: the
		// only honest state is a clean slate. Clear the journal and start
		// at generation 1; in a sharded deployment the coordinator's
		// anti-entropy loop re-converges this worker.
		d.log.Printf("serve: journal floor %d unreachable even from a cold build; clearing journal, starting at generation 1",
			d.journal.Floor())
		if err := d.journal.CompactThrough(d.journal.LastGen()); err != nil {
			return err
		}
		chain = nil
	}
	replayedTo, err := d.replay(ctx, chain, gen)
	if err != nil {
		return fmt.Errorf("serve: journal replay at generation %d: %w", replayedTo, err)
	}
	d.bootGen = replayedTo
	if d.replayed.Load() > 0 {
		d.log.Printf("serve: replayed %d journal batch(es), generation %d -> %d (%.1f ms)",
			d.replayed.Load(), gen, replayedTo, float64(d.replayNS.Load())/1e6)
	}
	// Re-checkpoint when boot moved past the on-disk snapshot (cold
	// build, or replayed batches), so the next crash replays nothing.
	if !d.warmBoot || d.replayed.Load() > 0 {
		if err := d.Checkpoint(replayedTo); err != nil {
			// Not fatal: the journal still covers the gap.
			d.log.Printf("serve: boot checkpoint failed (journal retained): %v", err)
		}
	} else {
		d.lastCkptGen.Store(replayedTo)
		d.lastCkptNS.Store(time.Now().UnixNano())
	}
	return nil
}

// restoreCheckpoint loads the checkpoint when it is valid for this
// graph; any other outcome (missing, torn, corrupt, legacy v2, other
// graph) is logged and reported as a cold boot.
func (d *Durable) restoreCheckpoint() (*core.Factor, uint64) {
	f, meta, err := core.LoadFactorFileMeta(d.ckpt)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, 0
	case err != nil:
		d.log.Printf("serve: checkpoint %s unusable (%v), cold boot", d.ckpt, err)
		return nil, 0
	}
	if err := meta.Validate(d.digest); err != nil {
		d.log.Printf("serve: checkpoint %s rejected (%v), cold boot", d.ckpt, err)
		return nil, 0
	}
	if f.N() != d.base.N {
		d.log.Printf("serve: checkpoint %s has %d vertices, graph has %d; cold boot", d.ckpt, f.N(), d.base.N)
		return nil, 0
	}
	d.log.Printf("serve: restored checkpoint %s (generation %d, %d overlay edge(s), %.1f MB)",
		d.ckpt, meta.Generation, len(meta.Overlay), float64(f.Memory())/1e6)
	return f, meta.Generation
}

// replay applies a journal chain through the updater, returning the
// generation reached. Markers (and empty batches) advance the
// generation without touching the factor.
func (d *Durable) replay(ctx context.Context, chain []wal.Record, gen uint64) (uint64, error) {
	for _, rec := range chain {
		if len(rec.Edges) == 0 {
			gen = rec.Gen
			continue
		}
		b := core.NewUpdateBatch()
		for _, e := range rec.Edges {
			if err := b.Set(e.U, e.V, e.W); err != nil {
				return gen, err
			}
		}
		t0 := time.Now()
		p, err := d.updater.Apply(ctx, b)
		if err != nil {
			return gen, err
		}
		if err := d.updater.Commit(p); err != nil {
			return gen, err
		}
		d.replayed.Add(1)
		d.replayNS.Add(uint64(time.Since(t0)))
		gen = rec.Gen
	}
	return gen, nil
}

// buildFresh factorizes the base graph from scratch.
func (d *Durable) buildFresh(ctx context.Context) (*core.Factor, error) {
	plan, err := core.NewPlan(d.base, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return core.NewFactorCtx(ctx, plan, d.opts.Threads)
}

// Updater is the journal-backed updater; hand it to Options.Updater.
func (d *Durable) Updater() *core.FactorUpdater { return d.updater }

// Factor is the factor recovery arrived at; serve it.
func (d *Durable) Factor() *core.Factor { return d.updater.Factor() }

// BootGeneration is the generation recovery arrived at; hand it to
// Options.InitialGeneration.
func (d *Durable) BootGeneration() uint64 { return d.bootGen }

// WarmBoot reports whether the checkpoint was restored (vs rebuilt).
func (d *Durable) WarmBoot() bool { return d.warmBoot }

// AppendCommitted journals one committed batch: absolute edge weights
// that move any state in [from, to) to exactly generation to. The
// append is fsync'd; its return is the transaction's commit point.
func (d *Durable) AppendCommitted(from, to uint64, edges []core.EdgeDelta) error {
	rec := wal.Record{From: from, Gen: to, Edges: make([]wal.Edge, len(edges))}
	for i, e := range edges {
		rec.Edges[i] = wal.Edge{U: e.U, V: e.V, W: e.W}
	}
	return d.journal.Append(rec)
}

// AppendMarker journals a coverage floor at gen — used when the live
// state jumped generations without a batch (reload, resync), so a
// later boot cannot replay stale records across the jump.
func (d *Durable) AppendMarker(gen uint64) error {
	return d.journal.AppendMarker(gen)
}

// Checkpoint snapshots the updater's current factor at gen (with the
// overlay of edge weights that differ from the base graph) and
// truncates the journal through gen. The caller must hold the swap
// serialization (the Server's reloading CAS): the factor, overlay, and
// generation must describe one consistent snapshot.
func (d *Durable) Checkpoint(gen uint64) error {
	return d.writeCheckpoint(d.captureCheckpoint(gen))
}

// captureCheckpoint takes the snapshot Checkpoint writes. It is cheap
// (no I/O), and the caller must hold the swap serialization while it
// runs; the write that follows does not need it, because a published
// factor is never mutated again.
func (d *Durable) captureCheckpoint(gen uint64) checkpointSnap {
	return checkpointSnap{
		seq: d.ckptSeq.Add(1),
		f:   d.updater.Factor(),
		meta: core.CheckpointMeta{
			Generation:  gen,
			GraphDigest: d.digest,
			Overlay:     d.updater.OverlayAgainst(d.base),
		},
	}
}

// writeCheckpoint saves a captured snapshot and truncates the journal
// through its generation. Writes are serialized on ckptMu, and a
// snapshot captured before one whose write already began is dropped, so
// an older capture never overwrites a newer checkpoint.
func (d *Durable) writeCheckpoint(c checkpointSnap) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if c.seq < d.ckptStarted {
		return nil
	}
	d.ckptStarted = c.seq
	gen := c.meta.Generation
	if err := core.SaveFactorFileMeta(d.ckpt, c.f, c.meta); err != nil {
		d.checkpointErrs.Add(1)
		return err
	}
	d.checkpoints.Add(1)
	d.lastCkptGen.Store(gen)
	d.lastCkptNS.Store(time.Now().UnixNano())
	return d.journal.CompactThrough(gen)
}

// Rebuild factorizes the base graph fresh and rebases the updater on
// it — the reload source for a durable server. Caller holds the
// reloading CAS.
func (d *Durable) Rebuild(ctx context.Context) (*core.Factor, error) {
	f, err := d.buildFresh(ctx)
	if err != nil {
		return nil, err
	}
	if err := d.updater.Rebase(d.base, f); err != nil {
		return nil, err
	}
	return f, nil
}

// ResyncFactor rebuilds from the base graph with a donor's overlay
// merged in — the anti-entropy full-resync path for a worker whose
// generation the coordinator's journal can no longer bridge. The
// updater is rebased only after the build succeeds, so a failed resync
// leaves the serving state untouched. Caller holds the reloading CAS.
func (d *Durable) ResyncFactor(ctx context.Context, overlay []core.EdgeDelta) (*core.Factor, error) {
	merged := make([]graph.Edge, 0, len(d.base.Edges())+len(overlay))
	seen := make(map[[2]int]bool, len(overlay))
	for _, e := range overlay {
		u, v := e.U, e.V
		if v < u {
			u, v = v, u
		}
		if u < 0 || v >= d.base.N || u == v {
			return nil, fmt.Errorf("serve: resync overlay edge (%d,%d) out of range", e.U, e.V)
		}
		seen[[2]int{u, v}] = true
		merged = append(merged, graph.Edge{U: u, V: v, W: e.W})
	}
	for _, e := range d.base.Edges() {
		u, v := e.U, e.V
		if v < u {
			u, v = v, u
		}
		if !seen[[2]int{u, v}] {
			merged = append(merged, e)
		}
	}
	g2, err := graph.NewFromEdges(d.base.N, merged)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(g2, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	f, err := core.NewFactorCtx(ctx, plan, d.opts.Threads)
	if err != nil {
		return nil, err
	}
	if err := d.updater.Rebase(g2, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Overlay is the current diff against the base graph — what
// GET /admin/overlay serves to anti-entropy donor requests. Caller
// holds the reloading CAS so the overlay matches the generation it is
// reported with.
func (d *Durable) Overlay() []core.EdgeDelta {
	return d.updater.OverlayAgainst(d.base)
}

// GraphDigest identifies the base graph (surfaced on /admin/overlay).
func (d *Durable) GraphDigest() uint64 { return d.digest }

// Close releases the journal. The checkpoint needs no closing.
func (d *Durable) Close() error { return d.journal.Close() }

// RunCheckpointer drives the background checkpoint loop until ctx is
// cancelled: once the journal passes the byte or record threshold, it
// takes the swap serialization (skipping the tick when a reload or
// update holds it — the next tick retries) only long enough to capture
// the factor, overlay and generation, then writes the checkpoint and
// truncates the journal outside it, so updates keep preparing and
// committing during the write and fsync. The capture also holds
// captureMu, which update steps wait on before their CAS attempt, so a
// capture delays an update step but never refuses it. A no-op on a
// server without durable state.
func (s *Server) RunCheckpointer(ctx context.Context) {
	d := s.durable
	if d == nil {
		return
	}
	ticker := time.NewTicker(d.opts.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		st := d.journal.Stats()
		if st.Bytes < d.opts.CheckpointBytes && st.Records < d.opts.CheckpointRecords {
			continue
		}
		s.captureMu.Lock()
		if !s.reloading.CompareAndSwap(false, true) {
			s.captureMu.Unlock()
			continue
		}
		gen := s.generation.Load()
		fault.Inject("serve.checkpoint.capture")
		snap := d.captureCheckpoint(gen)
		s.reloading.Store(false)
		s.captureMu.Unlock()
		if err := d.writeCheckpoint(snap); err != nil {
			s.log.Printf("serve: background checkpoint at generation %d failed (journal retained): %v", gen, err)
		} else {
			s.log.Printf("serve: checkpointed at generation %d (%d journal record(s) compacted)", gen, st.Records)
		}
	}
}

// DurabilitySnapshot is the /metrics view of the durable state.
type DurabilitySnapshot struct {
	JournalSegments          int     `json:"journal_segments"`
	JournalRecords           int     `json:"journal_records"`
	JournalBytes             int64   `json:"journal_bytes"`
	JournalFirstGen          uint64  `json:"journal_first_gen"`
	JournalLastGen           uint64  `json:"journal_last_gen"`
	LastCheckpointGeneration uint64  `json:"last_checkpoint_generation"`
	CheckpointStalenessGens  uint64  `json:"checkpoint_staleness_gens"`
	CheckpointStalenessSec   float64 `json:"checkpoint_staleness_sec"`
	Checkpoints              uint64  `json:"checkpoints"`
	CheckpointFailures       uint64  `json:"checkpoint_failures"`
	ReplayedBatches          uint64  `json:"replayed_batches"`
	ReplayAvgLatencyUS       float64 `json:"replay_avg_latency_us"`
}

// Snapshot reports the durable-state counters at serving generation
// gen.
func (d *Durable) Snapshot(gen uint64) DurabilitySnapshot {
	st := d.journal.Stats()
	snap := DurabilitySnapshot{
		JournalSegments:          st.Segments,
		JournalRecords:           st.Records,
		JournalBytes:             st.Bytes,
		JournalFirstGen:          st.FirstGen,
		JournalLastGen:           st.LastGen,
		LastCheckpointGeneration: d.lastCkptGen.Load(),
		Checkpoints:              d.checkpoints.Load(),
		CheckpointFailures:       d.checkpointErrs.Load(),
		ReplayedBatches:          d.replayed.Load(),
	}
	if ck := snap.LastCheckpointGeneration; gen > ck {
		snap.CheckpointStalenessGens = gen - ck
	}
	if at := d.lastCkptNS.Load(); at > 0 {
		snap.CheckpointStalenessSec = time.Since(time.Unix(0, at)).Seconds()
	}
	if n := snap.ReplayedBatches; n > 0 {
		snap.ReplayAvgLatencyUS = float64(d.replayNS.Load()) / float64(n) / 1e3
	}
	return snap
}
