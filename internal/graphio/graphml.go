package graphio

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// GraphML and JSON interchange formats, so analysis results and inputs move
// between this library and mainstream tooling (Gephi, NetworkX, yEd read
// GraphML; d3 and notebooks read the JSON node-link form).

// graphML mirrors the subset of the GraphML schema we read and write.
type graphML struct {
	XMLName xml.Name     `xml:"graphml"`
	Keys    []graphMLKey `xml:"key"`
	Graph   graphMLGraph `xml:"graph"`
}

type graphMLKey struct {
	ID   string `xml:"id,attr"`
	For  string `xml:"for,attr"`
	Name string `xml:"attr.name,attr"`
	Type string `xml:"attr.type,attr"`
}

type graphMLGraph struct {
	EdgeDefault string        `xml:"edgedefault,attr"`
	Nodes       []graphMLNode `xml:"node"`
	Edges       []graphMLEdge `xml:"edge"`
}

type graphMLNode struct {
	ID string `xml:"id,attr"`
}

type graphMLEdge struct {
	Source string        `xml:"source,attr"`
	Target string        `xml:"target,attr"`
	Data   []graphMLData `xml:"data"`
}

type graphMLData struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// WriteGraphML writes g as GraphML; weighted graphs carry a d0 "weight"
// edge attribute.
func WriteGraphML(w io.Writer, g *graph.Graph) error {
	doc := graphML{}
	if g.Weighted() {
		doc.Keys = append(doc.Keys, graphMLKey{ID: "d0", For: "edge", Name: "weight", Type: "double"})
	}
	doc.Graph.EdgeDefault = "undirected"
	if g.Directed() {
		doc.Graph.EdgeDefault = "directed"
	}
	for v := 0; v < g.NumVertices(); v++ {
		doc.Graph.Nodes = append(doc.Graph.Nodes, graphMLNode{ID: "n" + strconv.Itoa(v)})
	}
	add := func(u, v graph.V, weight float64) {
		e := graphMLEdge{Source: "n" + strconv.Itoa(int(u)), Target: "n" + strconv.Itoa(int(v))}
		if g.Weighted() {
			e.Data = append(e.Data, graphMLData{Key: "d0", Value: strconv.FormatFloat(weight, 'g', -1, 64)})
		}
		doc.Graph.Edges = append(doc.Graph.Edges, e)
	}
	if g.Weighted() {
		for _, e := range g.WeightedEdges() {
			add(e.From, e.To, e.W)
		}
	} else {
		for _, e := range g.Edges() {
			add(e.From, e.To, 1)
		}
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ReadGraphML reads a GraphML document written by WriteGraphML or by common
// tools: node ids are arbitrary strings (remapped densely in appearance
// order), edge direction comes from the graph's edgedefault, and a numeric
// "weight"-named attribute (or key d0) makes the result weighted.
func ReadGraphML(r io.Reader) (*graph.Graph, []string, error) {
	var doc graphML
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("graphio: graphml: %v", err)
	}
	weightKey := ""
	for _, k := range doc.Keys {
		if k.For == "edge" && (k.Name == "weight" || k.ID == "d0") {
			weightKey = k.ID
		}
	}
	directed := doc.Graph.EdgeDefault == "directed"
	remap := map[string]int32{}
	var names []string
	id := func(s string) int32 {
		if v, ok := remap[s]; ok {
			return v
		}
		v := int32(len(names))
		remap[s] = v
		names = append(names, s)
		return v
	}
	for _, n := range doc.Graph.Nodes {
		id(n.ID)
	}
	weighted := false
	var wedges []graph.WeightedEdge
	for _, e := range doc.Graph.Edges {
		we := graph.WeightedEdge{From: id(e.Source), To: id(e.Target), W: 1}
		for _, d := range e.Data {
			if d.Key == weightKey && weightKey != "" {
				w, err := strconv.ParseFloat(d.Value, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("graphio: graphml: bad weight %q", d.Value)
				}
				if err := checkWeight(w); err != nil {
					return nil, nil, fmt.Errorf("graphio: graphml: %v", err)
				}
				we.W = w
				weighted = true
			}
		}
		wedges = append(wedges, we)
	}
	if weighted {
		return graph.NewWeightedFromEdges(len(names), wedges, directed), names, nil
	}
	edges := make([]graph.Edge, len(wedges))
	for i, we := range wedges {
		edges[i] = graph.Edge{From: we.From, To: we.To}
	}
	return graph.NewFromEdges(len(names), edges, directed), names, nil
}

// jsonGraph is the d3-style node-link form.
type jsonGraph struct {
	Directed bool       `json:"directed"`
	Nodes    []jsonNode `json:"nodes"`
	Links    []jsonLink `json:"links"`
}

type jsonNode struct {
	ID int32 `json:"id"`
}

type jsonLink struct {
	Source int32    `json:"source"`
	Target int32    `json:"target"`
	Weight *float64 `json:"weight,omitempty"`
}

// WriteJSON writes g in d3 node-link JSON.
func WriteJSON(w io.Writer, g *graph.Graph) error {
	doc := jsonGraph{Directed: g.Directed()}
	for v := 0; v < g.NumVertices(); v++ {
		doc.Nodes = append(doc.Nodes, jsonNode{ID: int32(v)})
	}
	if g.Weighted() {
		for _, e := range g.WeightedEdges() {
			we := e.W
			doc.Links = append(doc.Links, jsonLink{Source: e.From, Target: e.To, Weight: &we})
		}
	} else {
		for _, e := range g.Edges() {
			doc.Links = append(doc.Links, jsonLink{Source: e.From, Target: e.To})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON reads d3 node-link JSON written by WriteJSON. Node ids must be
// dense [0, n); any link carrying a weight makes the graph weighted.
func ReadJSON(r io.Reader) (*graph.Graph, error) {
	var doc jsonGraph
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("graphio: json: %v", err)
	}
	n := len(doc.Nodes)
	for _, nd := range doc.Nodes {
		if nd.ID < 0 || int(nd.ID) >= n {
			return nil, fmt.Errorf("graphio: json: node id %d not dense in [0,%d)", nd.ID, n)
		}
	}
	weighted := false
	for _, l := range doc.Links {
		if l.Weight != nil {
			weighted = true
			break
		}
	}
	if weighted {
		var wedges []graph.WeightedEdge
		for _, l := range doc.Links {
			w := 1.0
			if l.Weight != nil {
				w = *l.Weight
			}
			if err := checkWeight(w); err != nil {
				return nil, fmt.Errorf("graphio: json: %v", err)
			}
			if badEndpoint(l, n) {
				return nil, fmt.Errorf("graphio: json: link endpoint out of range")
			}
			wedges = append(wedges, graph.WeightedEdge{From: l.Source, To: l.Target, W: w})
		}
		return graph.NewWeightedFromEdges(n, wedges, doc.Directed), nil
	}
	var edges []graph.Edge
	for _, l := range doc.Links {
		if badEndpoint(l, n) {
			return nil, fmt.Errorf("graphio: json: link endpoint out of range")
		}
		edges = append(edges, graph.Edge{From: l.Source, To: l.Target})
	}
	return graph.NewFromEdges(n, edges, doc.Directed), nil
}

func badEndpoint(l jsonLink, n int) bool {
	return l.Source < 0 || int(l.Source) >= n || l.Target < 0 || int(l.Target) >= n
}
