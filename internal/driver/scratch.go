package driver

import (
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// Scratch is one worker's per-goroutine state: the reusable compilation
// memory — the front end's scratch (AST slabs, symbol table, lowering
// staging), the SSA construction scratch (liveness sets, dominator tree,
// φ worklists), New's coalescer scratch (union-find forest, congruence
// classes, rewrite buffers), the Briggs/Briggs* scratch (interference
// matrix and adjacency lists, node universe, liveness, union-find) with
// its loop-depth walk, and the allocator's — plus the worker's phase
// tracer. A worker's second function of a given size allocates only a
// small fraction of what the first did.
//
// A Scratch belongs to one goroutine. Under Config.NoScratch the
// compilation memory is withheld from the passes (every compile
// allocates cold) but the tracer still rides along, so a cold run can
// be traced too. A nil *Scratch is also valid and means cold with no
// tracer.
type Scratch struct {
	cold bool        // Config.NoScratch: hand the passes nil scratches
	obs  *obs.Tracer // per-worker tracer; nil when observability is off

	lang     lang.Scratch
	ssa      ssa.Scratch
	core     core.Scratch
	graph    ifgraph.Scratch
	loops    dom.LoopScratch
	regalloc regalloc.Scratch

	// canon is the reused canonicalization buffer for cache keys: the
	// worker prints fingerprint + IR text into it and hashes the bytes,
	// so a steady-state cache hit allocates nothing. It rides along even
	// under NoScratch — it belongs to the cache layer, not the compile.
	canon []byte
}

// langScratch returns the front end's scratch, or nil for a nil or cold
// receiver (CompileOneScratch treats nil as cold).
func (s *Scratch) langScratch() *lang.Scratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.lang
}

// ssaScratch returns the ssa.Build scratch, or nil for a nil or cold
// receiver.
func (s *Scratch) ssaScratch() *ssa.Scratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.ssa
}

// coreScratch returns the coalescer scratch, or nil for a nil or cold
// receiver.
func (s *Scratch) coreScratch() *core.Scratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.core
}

// graphScratch returns the Briggs/Briggs* coalescer scratch, or nil for
// a nil or cold receiver (CoalesceScratch treats nil as cold).
func (s *Scratch) graphScratch() *ifgraph.Scratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.graph
}

// loopScratch returns the loop-depth scratch, or nil for a nil or cold
// receiver (LoopDepthInto treats nil as cold).
func (s *Scratch) loopScratch() *dom.LoopScratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.loops
}

// regallocScratch returns the allocator scratch, or nil for a nil or
// cold receiver (AllocateScratch treats nil as cold).
func (s *Scratch) regallocScratch() *regalloc.Scratch {
	if s == nil || s.cold {
		return nil
	}
	return &s.regalloc
}

// tracer returns the worker's phase tracer (possibly nil — every tracer
// method is a free no-op on nil).
func (s *Scratch) tracer() *obs.Tracer {
	if s == nil {
		return nil
	}
	return s.obs
}

// canonBuf returns the canonicalization buffer, emptied but with its
// capacity intact. Nil receivers get a nil slice (append allocates).
func (s *Scratch) canonBuf() []byte {
	if s == nil {
		return nil
	}
	return s.canon[:0]
}

// storeCanon hands the (possibly grown) buffer back for the next job.
func (s *Scratch) storeCanon(b []byte) {
	if s != nil {
		s.canon = b
	}
}
