package decompose

import "slices"

// forest is the sub-graph/articulation-point incidence forest of a partition:
// a node per sub-graph, a node per boundary AP, and an edge — an incidence —
// for every boundary AP of every sub-graph. It is acyclic because the
// sub-graphs are connected pieces of the block-cut tree, so a walk that leaves
// a sub-graph through one of its APs can only come back through the same AP;
// the α/β composition (alphabeta.go) rests on exactly that. buildSubgraphs
// builds it from the partition alone.
type forest struct {
	// Incidence artOff[j]+k is sub-graph j's k-th boundary AP, Arts[k];
	// incAP maps an incidence to its AP node.
	artOff []int32
	incAP  []int32
	// AP node a's incidences are apInc[apOff[a]:apOff[a+1]], one per
	// sub-graph it joins, and apSG lists those sub-graphs in the same places.
	apOff []int32
	apInc []int32
	apSG  []int32
	// order lists the sub-graphs that have a boundary AP so that each tree's
	// root comes first and every other sub-graph after the one its parent AP
	// was discovered from; parent maps a sub-graph to the incidence (one of
	// its own) of that AP, -1 for a root.
	order  []int32
	parent []int32
}

// newForest builds the forest from what buildSubgraphs knows when it has
// classified the vertices: the sub-graphs' boundary-AP counts as prefix sums
// (artOff) and, AP by AP in vertex order, the sub-graphs each AP joins
// (apSG[apOff[a]:apOff[a+1]]). Sub-graphs list their APs in vertex order too,
// so an AP's incidence in a sub-graph is that sub-graph's next unnumbered one.
func newForest(artOff, apOff, apSG []int32) *forest {
	numSG := len(artOff) - 1
	f := &forest{
		artOff: artOff,
		incAP:  make([]int32, len(apSG)),
		apOff:  apOff,
		apInc:  make([]int32, len(apSG)),
		apSG:   apSG,
		order:  make([]int32, 0, numSG),
		parent: make([]int32, numSG),
	}
	next := slices.Clone(artOff[:numSG])
	for a := 0; a+1 < len(apOff); a++ {
		for i := apOff[a]; i < apOff[a+1]; i++ {
			e := next[apSG[i]]
			next[apSG[i]]++
			f.apInc[i] = e
			f.incAP[e] = int32(a)
		}
	}
	const unseen = -2
	for j := range f.parent {
		f.parent[j] = unseen
	}
	for root := int32(0); int(root) < numSG; root++ {
		if f.parent[root] != unseen {
			continue
		}
		f.parent[root] = -1
		if artOff[root] == artOff[root+1] {
			continue // a whole component: nothing to compose
		}
		head := len(f.order)
		f.order = append(f.order, root)
		for ; head < len(f.order); head++ {
			j := f.order[head]
			for e := artOff[j]; e < artOff[j+1]; e++ {
				if e == f.parent[j] {
					continue
				}
				a := f.incAP[e]
				for i := apOff[a]; i < apOff[a+1]; i++ {
					if f.apInc[i] == e {
						continue
					}
					k := apSG[i]
					if f.parent[k] != unseen {
						panic("decompose: the sub-graph/articulation-point incidences contain a cycle")
					}
					f.parent[k] = f.apInc[i]
					f.order = append(f.order, k)
				}
			}
		}
	}
	return f
}
