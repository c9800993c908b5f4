// Package datasets is the registry of synthetic stand-ins for the paper's
// twelve evaluation graphs (Table 1). The real SNAP/DIMACS files are not
// available offline; per DESIGN.md §3 each stand-in is a seeded generator
// tuned to land in the original's structural band: directedness, density,
// top-sub-graph share (Table 4) and degree-1/leaf fraction (Figure 7's
// total-redundancy driver).
//
// Sizes: BaseN is the default benchmark size (scale=1), chosen so a full
// serial-Brandes sweep stays laptop-feasible; PaperVerts/PaperEdges record
// the original sizes for Table 1 reporting. The Build(scale) knob scales the
// vertex count (structure knobs stay fixed).
package datasets

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset describes one evaluation graph.
type Dataset struct {
	Name        string
	Description string
	PaperVerts  int64
	PaperEdges  int64
	Directed    bool
	BaseN       int
	Build       func(scale float64) *graph.Graph
}

func scaled(baseN int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(baseN) * scale)
	if n < 64 {
		n = 64
	}
	return n
}

func social(baseN int, p gen.SocialParams) func(float64) *graph.Graph {
	return func(scale float64) *graph.Graph {
		q := p
		q.N = scaled(baseN, scale)
		q.Communities = int(math.Max(4, float64(p.Communities)*math.Sqrt(scale)))
		return gen.SocialLike(q)
	}
}

func web(baseN int, p gen.WebParams) func(float64) *graph.Graph {
	return func(scale float64) *graph.Graph {
		q := p
		q.N = scaled(baseN, scale)
		q.Sites = int(math.Max(4, float64(p.Sites)*math.Sqrt(scale)))
		return gen.WebLike(q)
	}
}

func road(baseRows, baseCols int, p gen.RoadParams) func(float64) *graph.Graph {
	return func(scale float64) *graph.Graph {
		if scale <= 0 {
			scale = 1
		}
		q := p
		f := math.Sqrt(scale)
		q.Rows = int(math.Max(8, float64(baseRows)*f))
		q.Cols = int(math.Max(8, float64(baseCols)*f))
		return gen.RoadLike(q)
	}
}

// All returns the twelve Table 1 stand-ins in the paper's order.
func All() []Dataset {
	return []Dataset{
		{
			Name:        "email-enron",
			Description: "Enron email network (undirected, dense hubs, ~31% leaf fold)",
			PaperVerts:  36692, PaperEdges: 367662, Directed: false, BaseN: 2400,
			Build: social(2400, gen.SocialParams{AvgDeg: 14, Communities: 60,
				TopShare: 0.55, LeafFrac: 0.30, Seed: 101}),
		},
		{
			Name:        "email-euall",
			Description: "EU institution email (directed, very sparse, ~70% single-edge sources)",
			PaperVerts:  265214, PaperEdges: 420045, Directed: true, BaseN: 4000,
			Build: social(4000, gen.SocialParams{AvgDeg: 4, Communities: 120,
				TopShare: 0.14, LeafFrac: 0.70, Directed: true, Reciprocity: 0.25, Seed: 102}),
		},
		{
			Name:        "slashdot0811",
			Description: "Slashdot Zoo (directed, dense top community, few leaves)",
			PaperVerts:  77360, PaperEdges: 905468, Directed: true, BaseN: 2200,
			Build: social(2200, gen.SocialParams{AvgDeg: 16, Communities: 80,
				TopShare: 0.70, LeafFrac: 0.12, Directed: true, Reciprocity: 0.8, Seed: 103}),
		},
		{
			Name:        "soc-douban",
			Description: "DouBan social network (directed, ~67% leaf fold)",
			PaperVerts:  154908, PaperEdges: 654188, Directed: true, BaseN: 3200,
			Build: social(3200, gen.SocialParams{AvgDeg: 8, Communities: 150,
				TopShare: 0.34, LeafFrac: 0.65, Directed: true, Reciprocity: 0.4, Seed: 104}),
		},
		{
			Name:        "wiki-talk",
			Description: "Wikipedia talk pages (directed, 80% partial redundancy off a 26% top core)",
			PaperVerts:  2394385, PaperEdges: 5021410, Directed: true, BaseN: 5000,
			Build: social(5000, gen.SocialParams{AvgDeg: 5, Communities: 300,
				TopShare: 0.26, LeafFrac: 0.30, Directed: true, Reciprocity: 0.3, Seed: 105}),
		},
		{
			Name:        "dblp-2010",
			Description: "DBLP collaboration (reciprocal, two large communities, ~49% partial)",
			PaperVerts:  326186, PaperEdges: 1615400, Directed: true, BaseN: 3600,
			Build: social(3600, gen.SocialParams{AvgDeg: 10, Communities: 140,
				TopShare: 0.46, LeafFrac: 0.42, Directed: true, Reciprocity: 0.95, Seed: 106}),
		},
		{
			Name:        "com-youtube",
			Description: "YouTube friendships (undirected, ~53% leaf fold)",
			PaperVerts:  1134890, PaperEdges: 5975248, Directed: false, BaseN: 4400,
			Build: social(4400, gen.SocialParams{AvgDeg: 10, Communities: 200,
				TopShare: 0.46, LeafFrac: 0.53, Seed: 107}),
		},
		{
			Name:        "web-notredame",
			Description: "Notre Dame web crawl (directed hierarchical sites, 64% partial)",
			PaperVerts:  325729, PaperEdges: 1497134, Directed: true, BaseN: 3200,
			Build: web(3200, gen.WebParams{Sites: 120, AvgDeg: 9, LeafFrac: 0.30, Seed: 108}),
		},
		{
			Name:        "web-berkstan",
			Description: "Berkeley–Stanford crawl (directed, dense top site)",
			PaperVerts:  685230, PaperEdges: 7600595, Directed: true, BaseN: 3000,
			Build: web(3000, gen.WebParams{Sites: 50, AvgDeg: 20, LeafFrac: 0.10, Seed: 109}),
		},
		{
			Name:        "web-google",
			Description: "Google contest web graph (directed, dominant top component)",
			PaperVerts:  875713, PaperEdges: 5105039, Directed: true, BaseN: 3400,
			Build: web(3400, gen.WebParams{Sites: 150, AvgDeg: 11, LeafFrac: 0.15, Seed: 110}),
		},
		{
			Name:        "usa-roadny",
			Description: "New York road network (undirected grid-like, 88% in top sub-graph)",
			PaperVerts:  264346, PaperEdges: 733846, Directed: false, BaseN: 3600,
			Build: road(60, 60, gen.RoadParams{DeleteFrac: 0.08, SpurFrac: 0.10, SpurLen: 3, Seed: 111}),
		},
		{
			Name:        "usa-roadbay",
			Description: "SF Bay Area road network (undirected, sparser deletions, more spurs)",
			PaperVerts:  321270, PaperEdges: 800172, Directed: false, BaseN: 4000,
			Build: road(63, 63, gen.RoadParams{DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: 112}),
		},
	}
}

// ByName returns the dataset with the given name: one of All, or
// "human-disease", the Figure 2 motivation graph stand-in, whose Build ignores
// the scale (it is a fixed 1,419 vertices).
func ByName(name string) (Dataset, error) {
	if name == humanDisease.Name {
		return humanDisease, nil
	}
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("datasets: unknown dataset %q (see datasets.All)", name)
}

// Names returns all dataset names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.Name
	}
	return out
}

// humanDisease is the Figure 2 motivation graph stand-in. It is not a Table 1
// graph, so All leaves it out.
var humanDisease = Dataset{
	Name:        "human-disease",
	Description: "Human Disease Network (Figure 2: 1419 vertices, 3926 edges)",
	PaperVerts:  1419, PaperEdges: 3926, BaseN: 1419,
	Build: func(float64) *graph.Graph { return gen.HumanDiseaseLike(29) },
}
