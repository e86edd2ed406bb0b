// Package graph provides the undirected-graph substrate for the
// netalignmc reproduction: a compressed-sparse-row adjacency
// structure with sorted neighbor lists, builders that deduplicate and
// symmetrize edge lists, and the random-graph generators used by the
// paper's synthetic experiments (power-law graphs à la Barabási–Albert
// degree statistics, plus Erdős–Rényi edge perturbation).
//
// Graphs are simple (no self loops, no parallel edges) and undirected:
// every edge {u,v} appears in both adjacency lists. Vertex ids are
// dense ints in [0, N).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V int
}

// Graph is an immutable undirected graph in CSR form. Ptr has length
// NumVertices+1; the neighbors of vertex v are Adj[Ptr[v]:Ptr[v+1]],
// sorted ascending. Each undirected edge {u,v} is stored twice.
type Graph struct {
	Ptr []int
	Adj []int
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Ptr) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the sorted neighbor list of vertex v. The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// HasEdge reports whether {u,v} is an edge, by binary search on the
// shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.NumVertices() || v >= g.NumVertices() {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// Edges returns each undirected edge exactly once, with U < V,
// in lexicographic order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// Validate checks the structural invariants of the CSR representation:
// monotone row pointers, sorted duplicate-free neighbor lists, no self
// loops, and symmetric adjacency. It is used by tests and by the
// problem loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count")
	}
	if g.Ptr[0] != 0 || g.Ptr[n] != len(g.Adj) {
		return fmt.Errorf("graph: row pointer endpoints %d,%d do not match adjacency length %d", g.Ptr[0], g.Ptr[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		if g.Ptr[v] > g.Ptr[v+1] {
			return fmt.Errorf("graph: row pointers decrease at vertex %d", v)
		}
		adj := g.Neighbors(v)
		for i, u := range adj {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted/unique at position %d", v, i)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			}
		}
	}
	return nil
}

// Builder accumulates undirected edges and produces a Graph. Duplicate
// edges and self loops are dropped at Build time.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}. Self loops are ignored.
// AddEdge panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build constructs the CSR graph. The Builder may be reused afterward;
// it retains its accumulated edges.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	uniq := b.edges[:0:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}

	deg := make([]int, b.n)
	for _, e := range uniq {
		deg[e.U]++
		deg[e.V]++
	}
	ptr := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		ptr[v+1] = ptr[v] + deg[v]
	}
	adj := make([]int, ptr[b.n])
	next := make([]int, b.n)
	copy(next, ptr[:b.n])
	for _, e := range uniq {
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	g := &Graph{Ptr: ptr, Adj: adj}
	// Each list receives its neighbors in sorted order already for the
	// U side, but the V side interleaves; sort every list to be safe.
	for v := 0; v < b.n; v++ {
		sort.Ints(adj[ptr[v]:ptr[v+1]])
	}
	return g
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
