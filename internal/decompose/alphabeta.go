package decompose

import (
	"math/bits"

	"repro/internal/graph"
)

// The α/β composition. The paper counts α_SGi(a) and β_SGi(a) with one
// forward and one reverse BFS per (sub-graph, boundary AP) over everything
// outside the sub-graph (§4). The same integers compose along the incidence
// forest (forest.go). For a sub-graph j and a boundary AP a of it let
//
//	out_j(a) = leaves(a) + Σ_{v ∈ R_j(a), v ≠ a} (1 + leaves(v) + [v ∈ A_j]·α_j(v))
//
// be the number of vertices a reaches through j's side of the forest: R_j(a)
// is what a reaches inside j's own CSR, leaves(v) the γ-folded vertices that
// hang off v in j (they are not in the CSR), and α_j(v) everything a boundary
// AP v of j reaches beyond j. Nothing is counted twice, because the regions beyond
// two different APs of j are different subtrees of the forest. Then
//
//	α_i(a) = Σ_{j ∋ a} out_j(a) − out_i(a)
//
// and β is the same on reversed arcs (in_j). out_j(a) needs α_j only at j's
// other APs, so the messages resolve in two passes over the forest: leaves up,
// where a sub-graph sends to its parent AP what that AP reaches through it,
// and root down, where it sends to each of its other APs.
//
// The reach sums inside one directed sub-graph: label its strongly connected
// components once (graph.SCC, labels in reverse topological order), give each
// component the weight of its vertices, and propagate up to 64 sources at a
// time as one bit mask per component in a single pass over the arcs — forward
// a push in decreasing label, reverse a pull in increasing label, both over
// out-arcs, so no transpose is built. An undirected sub-graph is connected,
// every vertex of it reaches every other, and the sum has the closed form
// out_j(a) = |V_j| − 1 + Σ_{v ∈ A_j, v ≠ a} α_j(v), Farina's
// articulation-point impact pass (PAPERS.md).
type composer struct {
	d        *Decomposition
	directed bool

	// out[e], in[e] are the messages of incidence e (forest.artOff), 0 until
	// sent; sumOut[a], sumIn[a] what AP node a has received so far. Undirected
	// graphs have in = out and keep only out.
	out, in       []int64
	sumOut, sumIn []int64

	// Directed only. The SCC labelling of sub-graph j, made at its first visit
	// and kept for the second: labels and order (graph.SCC.Label) at
	// vertOff[j], the component count in comps[j].
	scc           graph.SCC
	vertOff       []int32
	labels, order []int32
	comps         []int32

	// Per visit: what the visited sub-graph's APs reach and (directed) are
	// reached from beyond it as known so far; directed, the components'
	// weights and the source masks.
	apOut, apIn []int64
	src         []int32
	wOut, wIn   []int64
	mask        []uint64
}

// composeAlphaBeta computes and stores α and β of every boundary AP of every
// sub-graph of d, a fresh build: its sub-graphs hold their folded CSRs and
// zeroed Alpha and Beta.
func (d *Decomposition) composeAlphaBeta() {
	f := d.forest
	if len(f.order) == 0 {
		return
	}
	c := &composer{
		d: d, directed: d.G.Directed(),
		out:    make([]int64, len(f.incAP)),
		sumOut: make([]int64, len(f.apOff)-1),
	}
	c.in, c.sumIn = c.out, c.sumOut
	maxVerts, maxArts := 0, 0
	for _, j := range f.order {
		maxVerts = max(maxVerts, d.Subgraphs[j].NumVerts())
		maxArts = max(maxArts, len(d.Subgraphs[j].Arts))
	}
	c.apOut = make([]int64, maxArts)
	c.src = make([]int32, 0, maxArts)
	if c.directed {
		c.in = make([]int64, len(c.out))
		c.sumIn = make([]int64, len(c.sumOut))
		c.apIn = make([]int64, maxArts)
		c.vertOff = make([]int32, len(d.Subgraphs)+1)
		for j, sg := range d.Subgraphs {
			c.vertOff[j+1] = c.vertOff[j] + int32(sg.NumVerts())
		}
		total := c.vertOff[len(d.Subgraphs)]
		c.labels = make([]int32, total)
		c.order = make([]int32, total)
		c.comps = make([]int32, len(d.Subgraphs))
		c.scc.Reserve(maxVerts)
		c.mask = make([]uint64, maxVerts)
		c.wOut = make([]int64, maxVerts)
		c.wIn = make([]int64, maxVerts)
	}

	// Leaves up: every sub-graph but a root tells its parent AP. Root down:
	// every sub-graph tells its other APs.
	for i := len(f.order) - 1; i >= 0; i-- {
		if j := f.order[i]; f.parent[j] >= 0 {
			c.send(j, true)
		}
	}
	for _, j := range f.order {
		c.send(j, false)
	}

	for j, sg := range d.Subgraphs {
		for k, la := range sg.Arts {
			e := f.artOff[j] + int32(k)
			a := f.incAP[e]
			sg.Alpha[la] = float64(c.sumOut[a] - c.out[e])
			sg.Beta[la] = float64(c.sumIn[a] - c.in[e])
		}
	}
}

// send computes out_j and in_j for sub-graph j's parent AP (up) or for all
// its other boundary APs (down) and hands them to those AP nodes. Every AP of
// j that is not a source must have received the messages of all its other
// sub-graphs; a source need not have, its own weight is never part of its own
// sum.
func (c *composer) send(j int32, up bool) {
	f, sg := c.d.forest, c.d.Subgraphs[j]
	first := f.artOff[j]
	src := c.src[:0]
	for k := range sg.Arts {
		e := first + int32(k)
		c.apOut[k] = c.sumOut[f.incAP[e]] - c.out[e]
		if c.directed {
			c.apIn[k] = c.sumIn[f.incAP[e]] - c.in[e]
		}
		if (e == f.parent[j]) == up {
			src = append(src, int32(k))
		}
	}
	out, in := c.out[first:], c.in[first:]
	if !c.directed {
		reach := int64(sg.NumVerts()) - 1
		for _, beyond := range c.apOut[:len(sg.Arts)] {
			reach += beyond
		}
		for _, k := range src {
			out[k] = reach - c.apOut[k]
		}
	} else if len(src) > 0 {
		c.reach(j, src, out, in)
	}
	for _, k := range src {
		a := f.incAP[first+k]
		c.sumOut[a] += out[k]
		if c.directed {
			c.sumIn[a] += in[k]
		}
	}
}

// reach fills out[k] and in[k] for the boundary APs Arts[k], k in src, of the
// directed sub-graph j by mask propagation over its component DAG; c.apOut and
// c.apIn hold what lies beyond each of j's APs.
func (c *composer) reach(j int32, src []int32, out, in []int64) {
	sg := c.d.Subgraphs[j]
	labels := c.labels[c.vertOff[j]:c.vertOff[j+1]]
	order := c.order[c.vertOff[j]:c.vertOff[j+1]]
	if c.comps[j] == 0 {
		c.comps[j] = int32(c.scc.Label(sg.offs, sg.adj, labels, order))
	}
	nc := c.comps[j]

	// Component weights. A folded vertex counts as one of the leaves of the
	// vertex it was folded into, and only against the arcs: it has no in-arc,
	// so no walk along them reaches it. In the swept graph it is a component
	// of its own that nothing reaches, whose weight is never read. (It is
	// never a source: a vertex with one arc is no articulation point.)
	wOut, wIn := c.wOut[:nc], c.wIn[:nc]
	clear(wOut)
	clear(wIn)
	for l, lab := range labels {
		wOut[lab]++
		wIn[lab] += 1 + int64(sg.Gamma[l])
	}
	for k, la := range sg.Arts {
		wOut[labels[la]] += c.apOut[k]
		wIn[labels[la]] += c.apIn[k]
	}

	// A source's own weight — itself and what lies beyond it — is in its
	// component's and comes off again; its leaves stay in the reverse sum,
	// they reach it.
	var starts [64]int32
	var sums [64]int64
	for ; len(src) > 0; src = src[min(64, len(src)):] {
		chunk := src[:min(64, len(src))]
		for b, k := range chunk {
			starts[b] = sg.Arts[k]
		}
		c.propagate(sg, labels, order, nc, starts[:len(chunk)], true)
		c.collect(wOut, sums[:len(chunk)])
		for b, k := range chunk {
			out[k] = sums[b] - 1 - c.apOut[k]
		}
		c.propagate(sg, labels, order, nc, starts[:len(chunk)], false)
		c.collect(wIn, sums[:len(chunk)])
		for b, k := range chunk {
			in[k] = sums[b] - 1 - c.apIn[k]
		}
	}
}

// propagate leaves in c.mask, per component of sg, the set of sources (bit b
// for starts[b]) that reach it when forward, that it reaches otherwise. An arc
// between two components leads to the smaller label, and order groups the
// vertices by increasing label.
func (c *composer) propagate(sg *Subgraph, labels, order []int32, nc int32, starts []int32, forward bool) {
	mask := c.mask[:nc]
	clear(mask)
	for b, l := range starts {
		mask[labels[l]] |= 1 << uint(b)
	}
	if forward {
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			if m := mask[labels[u]]; m != 0 {
				for _, v := range sg.Out(u) {
					mask[labels[v]] |= m
				}
			}
		}
		return
	}
	for _, u := range order {
		m := mask[labels[u]]
		for _, v := range sg.Out(u) {
			m |= mask[labels[v]]
		}
		mask[labels[u]] = m
	}
}

// collect sets sums[b] to the weight of the components whose mask holds bit b.
func (c *composer) collect(w []int64, sums []int64) {
	clear(sums)
	for lab, m := range c.mask[:len(w)] {
		for ; m != 0; m &= m - 1 {
			sums[bits.TrailingZeros64(m)] += w[lab]
		}
	}
}
