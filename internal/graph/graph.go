// Package graph provides the graph machinery behind the simulated side of
// the reproduction: empirical giant out-components for validating the
// generating-function model, and the configuration-model overlays the
// baseline protocols gossip over.
//
// The representations are deliberately simple and allocation-conscious:
// a mutable adjacency builder (Digraph) for generators, a breadth-first
// searcher with reusable buffers for reachability, and an iterative Tarjan
// for the largest strongly connected component.
package graph

import (
	"fmt"

	"gossipkit/internal/xrand"
)

// Digraph is a directed graph over nodes 0..N-1 stored as adjacency lists.
// The zero value is an empty graph with no nodes; use NewDigraph.
type Digraph struct {
	adj  [][]int32
	arcs int
}

// NewDigraph returns an empty digraph with n nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// Arcs returns the number of directed arcs.
func (g *Digraph) Arcs() int { return g.arcs }

// AddArc adds the arc u→v. Parallel arcs and self-loops are permitted at
// this level: ConfigurationModel generates multigraphs that need them.
// Gossip graphs (core's giant-component run, the test-side GossipGraph)
// and the topology overlay generators never produce either — their
// samplers draw distinct non-self targets — so their degree counts are
// exact (see TestGossipGraphExactDegrees).
func (g *Digraph) AddArc(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.arcs++
}

// Out returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Out(u int) []int32 { return g.adj[u] }

// OutDegree returns the out-degree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// BFS is a reusable breadth-first searcher over a Digraph. A single BFS
// value can be reused across many searches on graphs of the same size
// without reallocating, which matters in Monte-Carlo loops.
type BFS struct {
	visited []int32 // epoch marks, avoids clearing between runs
	epoch   int32
	queue   []int32
}

// NewBFS returns a searcher for graphs with n nodes.
func NewBFS(n int) *BFS {
	return &BFS{
		visited: make([]int32, n),
		queue:   make([]int32, 0, n),
	}
}

// Reachable traverses g from src following arcs forward and returns the
// number of reached nodes (including src). If visit is non-nil it is called
// once per reached node.
func (b *BFS) Reachable(g *Digraph, src int, visit func(node int)) int {
	if g.N() != len(b.visited) {
		panic("graph: BFS size mismatch")
	}
	b.epoch++
	epoch := b.epoch
	b.queue = b.queue[:0]
	b.visited[src] = epoch
	b.queue = append(b.queue, int32(src))
	count := 0
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		count++
		if visit != nil {
			visit(int(u))
		}
		for _, v := range g.adj[u] {
			if b.visited[v] != epoch {
				b.visited[v] = epoch
				b.queue = append(b.queue, v)
			}
		}
	}
	return count
}

// ---------------------------------------------------------------------------
// Generators

// ConfigurationModel generates an undirected multigraph (stored as a
// symmetric digraph: each edge appears as two arcs) with the given degree
// sequence via uniform stub matching. If the total degree is odd, one stub
// is dropped. Self-loops and parallel edges are possible, as in the standard
// model; their density vanishes for light-tailed degree laws.
func ConfigurationModel(degrees []int, r *xrand.RNG) *Digraph {
	n := len(degrees)
	g := NewDigraph(n)
	total := 0
	for i, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d at %d", d, i))
		}
		total += d
	}
	stubs := make([]int32, 0, total)
	for i, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		g.AddArc(u, v)
		g.AddArc(v, u)
	}
	return g
}
