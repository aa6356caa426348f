package snapfreeze

type Mat struct{ data []float64 }

func (m Mat) Set(i, j int, v float64) {}
func (m Mat) Fill(v float64)          {}
func (m Mat) At(i, j int) float64     { return 0 }

type Factor struct {
	diag []Mat
	up   []Mat
	down []Mat
}

func (f *Factor) resetBlocks(ks []int)     {}
func (f *Factor) scatterEdges(edges []int) {}
func (f *Factor) injectMin(e int)          {}
func (f *Factor) reeliminate(ks []int)     {}
func (f *Factor) factorize(threads int)    {}
func (f *Factor) setEdge(u, v int)         {}
func (f *Factor) blocks(k int) *Factor     { return f }
func (f *Factor) eliminate(k int)          {}
func (f *Factor) cowClone(dirty []int) *Factor {
	return &Factor{}
}

type Patched struct {
	Factor *Factor
	Stale  []int
}

// Mutating the clone after publishing it leaks writes to readers.
func writeAfterPublish(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	nf.resetBlocks(nil) // clean: still private
	p.Factor = nf
	nf.injectMin(3) // want `mutator call injectMin on nf after the factor was published`
}

// Reaching the factor through the snapshot field is published by
// definition, flow aside.
func throughField(p *Patched) {
	p.Factor.resetBlocks(nil) // want `mutator call resetBlocks through a Patched snapshot's Factor`
}

// Block-level writes are writes.
func blockWrites(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	nf.diag[0].Set(0, 0, 1) // clean: before publish
	p.Factor = nf
	nf.diag[0].Set(1, 1, 0) // want `block write Set on nf after the factor was published`
	nf.up[2].Fill(0)        // want `block write Fill on nf after the factor was published`
	var m Mat
	nf.down[1] = m // want `block store on nf after the factor was published`
}

// Publication travels through simple aliases.
func aliased(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	q := nf
	p.Factor = nf
	q.injectMin(1) // want `mutator call injectMin on q after the factor was published`
}

// Whole-factor elimination, the block store the elimination step
// writes through, and single-edge writes touch blocks too.
func eliminationAfterPublish(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	nf.factorize(1) // clean: still private
	p.Factor = nf
	nf.blocks(0)     // want `mutator call blocks on nf after the factor was published`
	nf.eliminate(0)  // want `mutator call eliminate on nf after the factor was published`
	nf.factorize(2)  // want `mutator call factorize on nf after the factor was published`
	nf.setEdge(0, 1) // want `mutator call setEdge on nf after the factor was published`
}

// Composite-literal publication counts too.
func composite(f *Factor) *Patched {
	nf := f.cowClone(nil)
	p := &Patched{Factor: nf}
	nf.scatterEdges(nil) // want `mutator call scatterEdges on nf after the factor was published`
	return p
}

// Publication on one branch freezes the factor on the join.
func conditional(p *Patched, f *Factor, publish bool) {
	nf := f.cowClone(nil)
	if publish {
		p.Factor = nf
	}
	nf.injectMin(1) // want `mutator call injectMin on nf after the factor was published`
}

// The sanctioned pipeline: clone, mutate, publish last, then touch only
// snapshot metadata.
func sanctioned(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	nf.resetBlocks(nil)
	nf.scatterEdges(nil)
	nf.injectMin(7)
	nf.reeliminate(nil)
	p.Factor = nf
	p.Stale = nil
}

// Reads are never writes.
func reads(p *Patched) float64 {
	return p.Factor.diag[0].At(0, 0)
}

// Suppressed negative: single-writer rebase mutates in place before the
// engine pointer swap makes the snapshot visible.
func suppressed(p *Patched, f *Factor) {
	nf := f.cowClone(nil)
	p.Factor = nf
	//lint:ignore snapfreeze rebase runs under updMu before the engine swap publishes p to readers
	nf.injectMin(2)
}
