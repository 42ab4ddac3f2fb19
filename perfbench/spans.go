package main

import (
	"sort"
)

// Layers a span's self time is charged to. "unattributed" is the share of
// an action's wall time that no span explains; it is reported as such, never
// spread over the layers.
const (
	layerFacade       = "facade"
	layerProgram      = "program"
	layerCore         = "core"
	layerResolve      = "resolve"
	layerExcept       = "except"
	layerTransport    = "transport"
	layerWAL          = "wal"
	layerUnattributed = "unattributed"
)

var layers = []string{layerFacade, layerProgram, layerCore, layerResolve, layerExcept, layerTransport, layerWAL, layerUnattributed}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the run's origin. Parent indexes the action's span list; the root (the
// whole action, from the facade call to WaitDone's return) has parent -1.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Role   string `json:"role,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// covered is the length of the union of the given intervals clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] <= curE:
			curE = max(curE, iv[1])
		default:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		ivs = append(ivs, [2]int64{c.Start, c.End})
	}
	return (parent.End - parent.Start) - covered(parent.Start, parent.End, ivs)
}

// attribute splits the root span's interval (spans[0]) over layers. Each
// instant goes to the innermost span active at that instant — the one that
// started last, ties going to the one that ends first — so concurrent role
// spans are not counted twice, and the layer totals add up to the root's
// duration. Instants no span covers are "unattributed".
func attribute(spans []span) map[string]int64 {
	out := make(map[string]int64, len(layers))
	if len(spans) == 0 {
		return out
	}
	root := spans[0]
	cuts := []int64{root.Start, root.End}
	for _, s := range spans[1:] {
		if s.Start > root.Start && s.Start < root.End {
			cuts = append(cuts, s.Start)
		}
		if s.End > root.Start && s.End < root.End {
			cuts = append(cuts, s.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := -1
		for j, s := range spans[1:] {
			if s.Start > lo || s.End < hi {
				continue
			}
			if best < 0 {
				best = j + 1
				continue
			}
			b := spans[best]
			if s.Start > b.Start || (s.Start == b.Start && s.End < b.End) {
				best = j + 1
			}
		}
		layer := layerUnattributed
		if best > 0 {
			layer = spans[best].Layer
		}
		out[layer] += hi - lo
	}
	return out
}
