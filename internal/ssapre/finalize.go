package ssapre

// nodeOf returns the unique defNode of a real occurrence.
func (w *web) nodeOf(o *occurrence) *defNode {
	if o.defOcc != nil && o.defOcc.real == o {
		return o.defOcc
	}
	if o.node == nil {
		o.node = w.newNode(defNode{real: o, class: o.class})
	}
	return o.node
}

// availUndo is one entry of Finalize's undo log: the displaced available
// definition of class c, restored once the walk leaves the dominator
// subtree ending at end.
type availUndo struct {
	end  int32
	c    int
	prev *defNode
}

// finalize decides, walking the class's Φs and occurrences in dominator
// preorder, which occurrences reload from the temporary and which Φ
// operands need insertions, tracking the nearest available definition
// per class.
func (w *web) finalize() {
	sc := w.scratch
	availDef := sc.availDef[:0]
	for i := 0; i < w.nextClass; i++ {
		availDef = append(availDef, nil)
	}
	undo := sc.availUndo[:0]
	for i := range sc.events {
		e := &sc.events[i]
		for len(undo) > 0 && undo[len(undo)-1].end < e.pre {
			u := undo[len(undo)-1]
			availDef[u.c] = u.prev
			undo = undo[:len(undo)-1]
		}
		var c int
		var n *defNode
		switch e.kind {
		case evPhi:
			p := w.phiOf(e)
			if !p.willBeAvail {
				continue
			}
			c, n = p.class, p.node
		case evOcc:
			o := w.occOf(e)
			if !w.occStillValid(o) {
				continue
			}
			if def := availDef[o.class]; def != nil && o.defOcc != nil {
				o.reload = true
				o.defOcc = def
				continue
			}
			// leader: this occurrence computes the value
			o.reload = false
			o.defOcc = nil
			o.spec = false
			c, n = o.class, w.nodeOf(o)
		default:
			continue
		}
		undo = append(undo, availUndo{e.end, c, availDef[c]})
		availDef[c] = n
	}
	sc.availDef = availDef[:0]
	sc.availUndo = undo[:0]

	// insertion decisions for will-be-available Φs
	for _, p := range w.phis {
		if !p.willBeAvail {
			continue
		}
		for oi := range p.opnds {
			opnd := &p.opnds[oi]
			switch {
			case opnd.def == nil:
				opnd.insert = true
			case opnd.def.phi != nil && !opnd.def.phi.willBeAvail:
				opnd.insert = true
			case opnd.spec && w.ec.isLoad():
				// the value crosses speculative weak updates on this
				// edge: re-validate it with a check load
				opnd.insCheck = true
			}
		}
	}
}
