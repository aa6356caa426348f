package serve

// Live edge updates over HTTP. POST /admin/update takes a batch of
// edge-weight deltas and patches the serving factor through
// core.FactorUpdater: decreases re-eliminate only the dirtied etree
// ancestor chains on a copy-on-write clone, increases replay them
// through the DAG scheduler, and past the dirty threshold the factor is
// rebuilt outright. Queries keep serving the old snapshot for the whole
// apply window — readiness never flips, nothing is dropped — and the
// patched engine (factor + carried-over label cache + optionally
// repaired route result) swaps in atomically with a new generation.
//
// Two protocols share the endpoint:
//
//   - mode "apply" (the default): patch and swap in one request.
//   - mode "prepare" / "commit" / "abort": the shard coordinator's
//     all-or-nothing fan-out. Prepare does all the expensive work and
//     parks the patch; commit swaps it in (failing if the base factor
//     moved in between — the updater's stale-patch check); abort drops
//     it. Every worker swaps generation in the commit round or none do.
//
// A failure anywhere before the swap — bad batch, negative cycle, a
// fault-injected crash in the apply window — leaves the old engine
// serving, bit-for-bit: the patch is a private clone until the instant
// of the atomic store.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/fault"
)

// maxUpdateBody bounds the /admin/update request body.
const maxUpdateBody = 8 << 20

// updateRequest is the POST /admin/update body.
type updateRequest struct {
	// Mode selects the protocol step: "" or "apply" for one-shot,
	// "prepare"/"commit"/"abort" for the coordinated two-phase flow.
	Mode string `json:"mode,omitempty"`
	// Txn names a prepared patch so commit/abort address the right one.
	Txn string `json:"txn,omitempty"`
	// Edges are the new weights, one entry per undirected edge
	// (duplicates coalesce, last wins). Required for apply and prepare.
	Edges []core.EdgeDelta `json:"edges,omitempty"`
	// Gen, when nonzero, pins the generation this update must produce —
	// the shard coordinator's explicit-generation commit and the
	// anti-entropy catch-up stream use it so every worker lands on the
	// same number. Zero means "current + 1". For mode "resync" it is
	// required: the generation the resynced state is declared to be.
	Gen uint64 `json:"gen,omitempty"`
	// From, when nonzero, asserts the lowest generation these edge
	// weights apply cleanly to. A worker whose generation is below From
	// rejects the batch (it needs earlier batches or a resync first).
	From uint64 `json:"from,omitempty"`
}

// preparedUpdate parks the outcome of a prepare until commit/abort.
type preparedUpdate struct {
	txn     string
	patch   *core.Patched
	result  *core.Result // repaired route result, when the engine has one
	edges   []core.EdgeDelta
	baseGen uint64
}

// adminUpdate serves POST /admin/update.
func (s *Server) adminUpdate(w http.ResponseWriter, r *http.Request) {
	if s.updater == nil {
		s.writeErr(w, http.StatusNotImplemented, fmt.Errorf("server was started without an update source"))
		return
	}
	var req updateRequest
	body := http.MaxBytesReader(w, r.Body, maxUpdateBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad update body: %w", err))
		return
	}
	switch req.Mode {
	case "", "apply":
		s.updateApply(w, r, &req)
	case "prepare":
		s.updatePrepare(w, r, &req)
	case "commit":
		s.updateCommit(w, &req)
	case "abort":
		s.updateAbort(w, &req)
	case "resync":
		s.updateResync(w, r, &req)
	default:
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown update mode %q", req.Mode))
	}
}

// buildPatch runs the updater over the request's edges and, when the
// serving engine answers /route, repairs the dense path-tracked result
// to match: decreases patch a clone with the O(n²) rank-1 kernel; any
// increase (or rebuild) forces a fresh path-tracked solve of the
// updated graph.
func (s *Server) buildPatch(r *http.Request, req *updateRequest) (*core.Patched, *core.Result, []core.EdgeDelta, error) {
	if len(req.Edges) == 0 {
		return nil, nil, nil, fmt.Errorf("update needs at least one edge")
	}
	b := core.NewUpdateBatch()
	for _, d := range req.Edges {
		if err := b.Set(d.U, d.V, d.W); err != nil {
			return nil, nil, nil, err
		}
	}
	p, err := s.updater.Apply(r.Context(), b)
	if err != nil {
		return nil, nil, nil, err
	}
	e := s.eng.Load()
	var res *core.Result
	if e.result != nil {
		if len(p.Increases) == 0 && !p.Stats.FullRebuild {
			res = e.result.Clone()
			for _, d := range p.Decreases {
				if err := res.DecreaseEdge(d.U, d.V, d.W, 0); err != nil {
					return nil, nil, nil, fmt.Errorf("patching route result: %w", err)
				}
			}
		} else {
			if res, err = p.SolveRoutes(r.Context(), 0); err != nil {
				return nil, nil, nil, fmt.Errorf("re-solving route result: %w", err)
			}
		}
	}
	return p, res, b.Edges(), nil
}

// swapPatched commits a patch to the updater and publishes the new
// engine at generation target (0 selects current + 1). Callers hold
// the reloading CAS, which makes the sequence race-free: the stale
// pre-check, the journal append (the durable commit point — a crash
// after it replays the batch on boot, a crash before it never
// happened), and the updater commit (which cannot fail after a clean
// pre-check, because the CAS serializes every generation mutation).
func (s *Server) swapPatched(p *core.Patched, res *core.Result, edges []core.EdgeDelta, target uint64) (uint64, error) {
	if err := fault.InjectErr("serve.update.swap"); err != nil {
		return 0, err
	}
	cur := s.generation.Load()
	next := cur + 1
	if target != 0 {
		if target <= cur {
			return 0, fmt.Errorf("target generation %d not past current %d", target, cur)
		}
		next = target
	}
	if s.durable != nil {
		if err := s.updater.CanCommit(p); err != nil {
			return 0, err
		}
		if err := s.durable.AppendCommitted(cur, next, edges); err != nil {
			return 0, fmt.Errorf("journal append: %w", err)
		}
	}
	if err := s.updater.Commit(p); err != nil {
		return 0, err
	}
	old := s.eng.Load()
	s.generation.Store(next)
	s.eng.Store(&engine{
		factor: p.Factor,
		cache:  core.NewLabelCacheFrom(p.Factor, s.cacheSize, old.cache, p.StaleSupernodes),
		result: res,
		n:      p.Factor.N(),
		gen:    next,
	})
	return next, nil
}

// checkGenWindow validates an explicit-generation request against the
// current generation before any expensive work: a target at or below
// the current generation was already applied (idempotent skip), and a
// From above it means intervening batches are missing (resync needed).
func (s *Server) checkGenWindow(req *updateRequest) (alreadyApplied bool, err error) {
	if req.Gen == 0 {
		return false, nil
	}
	cur := s.generation.Load()
	if req.Gen <= cur {
		return true, nil
	}
	if req.From > cur {
		return false, fmt.Errorf("generation gap: batch applies from %d, worker is at %d (needs catch-up or resync)", req.From, cur)
	}
	return false, nil
}

// acquireSwap takes the reloading CAS for an update step. A background
// checkpoint holds the CAS only to capture its snapshot, and does so
// under captureMu, so the step waits the capture out: a refused 2PC
// commit would take this worker out of the coordinator's rotation. A
// reload or another update step still makes it fail.
func (s *Server) acquireSwap() bool {
	s.captureMu.Lock()
	defer s.captureMu.Unlock()
	return s.reloading.CompareAndSwap(false, true)
}

func (s *Server) updateApply(w http.ResponseWriter, r *http.Request, req *updateRequest) {
	if !s.acquireSwap() {
		w.Header().Set("Retry-After", RetryAfterDefault)
		s.writeErr(w, http.StatusConflict, fmt.Errorf("a reload or update is already in progress"))
		return
	}
	defer s.reloading.Store(false)
	if done, err := s.checkGenWindow(req); err != nil {
		s.writeErr(w, http.StatusConflict, err)
		return
	} else if done {
		// Already at or past the requested generation: the batch landed
		// before a crash, or a retry raced the first attempt. Idempotent.
		//lint:ignore walorder idempotent skip: the batch was journaled by the attempt that applied it, so this ack reports already-durable state
		s.writeJSON(w, http.StatusOK, map[string]any{
			"applied":    false,
			"skipped":    true,
			"generation": s.generation.Load(),
		})
		return
	}
	p, res, edges, err := s.buildPatch(r, req)
	if err != nil {
		s.log.Printf("serve: update failed, keeping current factor: %v", err)
		s.writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("update failed (still serving previous factor): %w", err))
		return
	}
	gen, err := s.swapPatched(p, res, edges, req.Gen)
	if err != nil {
		s.log.Printf("serve: update swap failed, keeping current factor: %v", err)
		s.writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("update failed (still serving previous factor): %w", err))
		return
	}
	s.log.Printf("serve: update applied (generation %d, %d dirty / %d supernodes, rebuild=%v)",
		gen, p.Stats.DirtySupernodes, p.Stats.TotalSupernodes, p.Stats.FullRebuild)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"applied":    true,
		"generation": gen,
		"stats":      p.Stats,
	})
}

func (s *Server) updatePrepare(w http.ResponseWriter, r *http.Request, req *updateRequest) {
	if req.Txn == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("prepare needs a txn id"))
		return
	}
	// Serialize the expensive phase with reloads and other updates, but
	// release the CAS afterwards: a coordinator crash between prepare and
	// commit must not wedge the worker. Staleness is re-checked at commit
	// by the updater instead.
	if !s.acquireSwap() {
		w.Header().Set("Retry-After", RetryAfterDefault)
		s.writeErr(w, http.StatusConflict, fmt.Errorf("a reload or update is already in progress"))
		return
	}
	p, res, edges, err := s.buildPatch(r, req)
	s.reloading.Store(false)
	if err != nil {
		s.log.Printf("serve: update prepare %q failed: %v", req.Txn, err)
		s.writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("prepare failed (still serving previous factor): %w", err))
		return
	}
	s.updMu.Lock()
	s.pending = &preparedUpdate{txn: req.Txn, patch: p, result: res, edges: edges, baseGen: s.eng.Load().gen}
	s.updMu.Unlock()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"prepared":   true,
		"txn":        req.Txn,
		"generation": s.eng.Load().gen,
		"stats":      p.Stats,
	})
}

func (s *Server) takePending(txn string) (*preparedUpdate, error) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	if s.pending == nil {
		return nil, fmt.Errorf("no prepared update")
	}
	if s.pending.txn != txn {
		return nil, fmt.Errorf("prepared txn is %q, not %q", s.pending.txn, txn)
	}
	p := s.pending
	s.pending = nil
	return p, nil
}

func (s *Server) updateCommit(w http.ResponseWriter, req *updateRequest) {
	pu, err := s.takePending(req.Txn)
	if err != nil {
		s.writeErr(w, http.StatusConflict, err)
		return
	}
	if !s.acquireSwap() {
		w.Header().Set("Retry-After", RetryAfterDefault)
		s.writeErr(w, http.StatusConflict, fmt.Errorf("a reload or update is already in progress"))
		return
	}
	defer s.reloading.Store(false)
	gen, err := s.swapPatched(pu.patch, pu.result, pu.edges, req.Gen)
	if err != nil {
		// The stale-patch check fired: something replaced the factor
		// between prepare and commit. The old snapshot keeps serving.
		s.log.Printf("serve: update commit %q failed, keeping current factor: %v", req.Txn, err)
		s.writeErr(w, http.StatusConflict,
			fmt.Errorf("commit failed (still serving previous factor): %w", err))
		return
	}
	s.log.Printf("serve: update %q committed (generation %d)", req.Txn, gen)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"committed":  true,
		"txn":        req.Txn,
		"generation": gen,
		"stats":      pu.patch.Stats,
	})
}

// updateResync serves mode "resync": the anti-entropy full-rebuild
// path for a worker whose generation the coordinator's journal can no
// longer bridge. The body carries a donor's overlay (every edge weight
// differing from the base graph) and the explicit generation that
// state is declared to be; the worker rebuilds from base + overlay,
// jumps its generation, and — before replying — checkpoints
// synchronously and clears its journal, so the 200 means the resynced
// state is durable. Idempotent: resending the same resync rebuilds to
// the same state.
func (s *Server) updateResync(w http.ResponseWriter, r *http.Request, req *updateRequest) {
	if s.durable == nil {
		s.writeErr(w, http.StatusNotImplemented, fmt.Errorf("resync needs a durable state dir"))
		return
	}
	if req.Gen == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("resync needs an explicit target generation"))
		return
	}
	if !s.acquireSwap() {
		w.Header().Set("Retry-After", RetryAfterDefault)
		s.writeErr(w, http.StatusConflict, fmt.Errorf("a reload or update is already in progress"))
		return
	}
	defer s.reloading.Store(false)
	s.notReady.Store(true)
	defer s.notReady.Store(false)

	f, err := s.durable.ResyncFactor(r.Context(), req.Edges)
	if err != nil {
		s.log.Printf("serve: resync rebuild failed, keeping current factor: %v", err)
		s.writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("resync failed (still serving previous factor): %w", err))
		return
	}
	// The rebuild replaced the whole state: drop any prepared patch.
	s.updMu.Lock()
	s.pending = nil
	s.updMu.Unlock()
	//lint:ignore walorder,genmono resync adopts the coordinator's authoritative generation; the checkpoint below makes it durable or the request fails and the coordinator retries
	s.generation.Store(req.Gen)
	//lint:ignore walorder resync publishes the rebuilt factor; its durability is the checkpoint below — on checkpoint failure the handler returns 500 and the coordinator retries
	s.eng.Store(newEngine(f, nil, f.N(), s.cacheSize, req.Gen))
	if err := s.durable.Checkpoint(req.Gen); err != nil {
		// The live state moved but is not durable; fail the request so
		// the coordinator retries (the resync is idempotent).
		s.log.Printf("serve: resync checkpoint failed (state live but not durable): %v", err)
		s.writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("resync applied but not durable, retry: %w", err))
		return
	}
	s.log.Printf("serve: resynced to generation %d (%d overlay edge(s))", req.Gen, len(req.Edges))
	s.writeJSON(w, http.StatusOK, map[string]any{
		"resynced":   true,
		"generation": req.Gen,
		"vertices":   f.N(),
	})
}

// adminOverlay serves GET /admin/overlay: the current generation plus
// every edge weight differing from the base graph — enough for a peer
// to reconstruct this worker's exact serving state from its own copy
// of the base graph. The coordinator uses it to pick a healthy donor
// when resyncing a worker the journal cannot bridge.
func (s *Server) adminOverlay(w http.ResponseWriter, _ *http.Request) {
	if s.durable == nil {
		s.writeErr(w, http.StatusNotImplemented, fmt.Errorf("server was started without a durable state dir"))
		return
	}
	// Take the swap serialization briefly so the overlay and the
	// generation describe the same snapshot.
	if !s.reloading.CompareAndSwap(false, true) {
		w.Header().Set("Retry-After", RetryAfterDefault)
		s.writeErr(w, http.StatusConflict, fmt.Errorf("a reload or update is in progress"))
		return
	}
	gen := s.generation.Load()
	overlay := s.durable.Overlay()
	s.reloading.Store(false)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"vertices":   s.eng.Load().n,
		"digest":     s.durable.GraphDigest(),
		"edges":      overlay,
	})
}

func (s *Server) updateAbort(w http.ResponseWriter, req *updateRequest) {
	s.updMu.Lock()
	aborted := s.pending != nil && (req.Txn == "" || s.pending.txn == req.Txn)
	if aborted {
		s.pending = nil
	}
	s.updMu.Unlock()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"aborted":    aborted,
		"txn":        req.Txn,
		"generation": s.eng.Load().gen,
	})
}
