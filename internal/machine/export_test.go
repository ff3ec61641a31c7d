package machine

// LaneCount reports the number of lanes one walk over t uses for the
// pipelined configs of cfgs.
func LaneCount(t *Trace, cfgs []Config) int {
	var pipelined []Config
	for _, cfg := range cfgs {
		if cfg.Pipelined {
			pipelined = append(pipelined, cfg.withDefaults())
		}
	}
	ln, _ := newLanes(t, pipelined)
	return ln.k
}
