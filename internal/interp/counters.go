package interp

import (
	"repro/internal/ir"
	"repro/internal/profile"
)

// counters hold a profiling run's data in plain arrays while the run
// executes, so the per-event cost is an indexed increment or a LOC
// compare instead of a map update; fold moves everything into the
// run's profile.Profile when the run ends.
type counters struct {
	// blocks[f][id] counts executions of block id of function f
	// (f is Func.Index); edges[f][2*id+i] counts its edge to Succs[i].
	blocks [][]uint64
	edges  [][]uint64
	// totals[site] counts the dynamic executions of a reference site.
	totals []uint64
	// the pending LOC runs of the load, store, mod and ref sites
	loads, stores, mods, refs siteRuns
}

// locRun is one site's pending run of identical LOC observations. A
// loop that keeps touching one variable costs a compare per access; the
// run reaches the site's LocSet in one AddN when the LOC changes or the
// run ends.
type locRun struct {
	loc profile.Loc
	n   uint64
}

// siteRuns are the pending runs of one site kind, indexed by site id,
// with the profile accessor that owns their LocSets.
type siteRuns struct {
	runs []locRun
	set  func(site int) profile.LocSet
}

// add records one observation of l at site.
func (s *siteRuns) add(site int, l profile.Loc) {
	if site >= len(s.runs) {
		s.runs = append(s.runs, make([]locRun, site+1-len(s.runs))...)
	}
	r := &s.runs[site]
	if r.n != 0 && r.loc != l {
		s.set(site).AddN(r.loc, r.n)
		r.n = 0
	}
	r.loc = l
	r.n++
}

// flush adds every pending run to its site's LocSet.
func (s *siteRuns) flush() {
	for site, r := range s.runs {
		if r.n != 0 {
			s.set(site).AddN(r.loc, r.n)
		}
	}
}

// newCounters sizes the dense counters for prog; edges and alias say
// which of them the run collects into prof.
func newCounters(prog *ir.Program, prof *profile.Profile, edges, alias bool) *counters {
	c := &counters{}
	if edges {
		c.blocks = make([][]uint64, len(prog.Funcs))
		c.edges = make([][]uint64, len(prog.Funcs))
		for i, fn := range prog.Funcs {
			n := 0
			for _, b := range fn.Blocks {
				n = max(n, b.ID+1)
			}
			c.blocks[i] = make([]uint64, n)
			c.edges[i] = make([]uint64, 2*n)
		}
	}
	if alias {
		n := prog.NumSites() + 1
		c.totals = make([]uint64, n)
		c.loads = siteRuns{runs: make([]locRun, n), set: prof.LoadSet}
		c.stores = siteRuns{runs: make([]locRun, n), set: prof.StoreSet}
		c.mods = siteRuns{runs: make([]locRun, n), set: prof.ModSet}
		c.refs = siteRuns{runs: make([]locRun, n), set: prof.RefSet}
	}
	return c
}

// exec counts one dynamic execution of a reference site.
func (c *counters) exec(site int) {
	if site >= len(c.totals) {
		c.totals = append(c.totals, make([]uint64, site+1-len(c.totals))...)
	}
	c.totals[site]++
}

// fold adds the counters into prof, once, when the run ends. Blocks,
// edges and sites that never executed get no entry, and an edge entry
// holds one count per successor; the serialized profile depends on
// both.
func (c *counters) fold(prog *ir.Program, prof *profile.Profile) {
	for fi, counts := range c.blocks {
		edges := c.edges[fi]
		for _, b := range prog.Funcs[fi].Blocks {
			k := profile.BlockOf(prog.Funcs[fi], b)
			if n := counts[b.ID]; n != 0 {
				prof.BlockCount[k] += n
			}
			e := edges[2*b.ID : 2*b.ID+2]
			if e[0] == 0 && e[1] == 0 {
				continue
			}
			dst := prof.EdgeCount[k]
			if dst == nil {
				dst = make([]uint64, len(b.Succs))
				prof.EdgeCount[k] = dst
			}
			for i := range min(len(dst), len(e)) {
				dst[i] += e[i]
			}
		}
	}
	for site, n := range c.totals {
		if n != 0 {
			prof.SiteTotal[site] += n
		}
	}
	c.loads.flush()
	c.stores.flush()
	c.mods.flush()
	c.refs.flush()
}
