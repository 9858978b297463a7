// Package rrset implements reverse-reachable (RR) set sampling and the
// greedy max-cover NodeSelection procedure shared by all RIS-style
// influence-maximization algorithms (TIM, IMM, PRIMA).
//
// An RR set is drawn by picking a root node uniformly at random and
// walking the graph backwards, keeping each in-edge independently with its
// influence probability. The fundamental identity is
// sigma(S) = n * E[ S ∩ RR != ∅ ].
package rrset

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// Sampler draws RR sets from one graph, reusing internal buffers. Not safe
// for concurrent use.
type Sampler struct {
	g       *graph.Graph
	visited []int32
	epoch   int32
	queue   []graph.NodeID
	// Cascade selects the diffusion model sampled against: IC performs
	// the per-edge reverse BFS, LT the single-trigger reverse walk.
	Cascade graph.Cascade
	// NodeCoin, if non-nil, is an additional per-node pass probability
	// applied when the walk tries to continue through a node (used by the
	// Com-IC RR-SIM/RR-CIM baselines, where adoption requires a node-level
	// GAP coin in addition to the live edge).
	NodeCoin func(v graph.NodeID) float64
	// EdgesVisited accumulates the total number of in-edges examined, the
	// width statistic w(R) used in running-time accounting (EPT).
	EdgesVisited int64
}

// NewSampler returns a sampler for g.
func NewSampler(g *graph.Graph) *Sampler {
	return &Sampler{
		g:       g,
		visited: make([]int32, g.N()),
		queue:   make([]graph.NodeID, 0, 256),
	}
}

// Sample draws one RR set rooted at a uniformly random node and appends
// the member nodes to dst, returning the extended slice. The root is
// always a member.
func (s *Sampler) Sample(rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	root := graph.NodeID(rng.Intn(s.g.N()))
	return s.SampleFrom(root, rng, dst)
}

// SampleFrom draws one RR set rooted at the given node.
func (s *Sampler) SampleFrom(root graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = -1
		}
		s.epoch = 1
	}
	s.visited[root] = s.epoch
	if s.NodeCoin != nil && !rng.Bool(s.NodeCoin(root)) {
		// The root itself would never adopt, so no seed placement can
		// cover this sample: the RR set is empty.
		return dst
	}
	dst = append(dst, root)
	if s.Cascade == graph.CascadeLT {
		return s.sampleLT(root, rng, dst)
	}
	return s.sampleIC(root, rng, dst)
}

// sampleIC continues an RR walk under independent cascade: a reverse BFS
// that keeps each in-edge with its probability, and, with a NodeCoin,
// passes each reached node with its coin. The xoshiro words stay in
// locals for the whole walk; stats.Flip draws exactly what RNG.Bool
// would, so the stream and the set are those of a Bool-per-coin walk.
// The queue is walked by a head index, so it keeps its capacity.
func (s *Sampler) sampleIC(root graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	st := rng.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	g, visited, epoch, coin := s.g, s.visited, s.epoch, s.NodeCoin
	var edges int64
	var live bool
	q := append(s.queue[:0], root)
	for head := 0; head < len(q); head++ {
		srcs, ps := g.InEdges(q[head])
		ps = ps[:len(srcs)] // lets the compiler drop the ps[i] bounds check
		edges += int64(len(srcs))
		for i, u := range srcs {
			if visited[u] == epoch {
				continue
			}
			if live, s0, s1, s2, s3 = stats.Flip(float64(ps[i]), s0, s1, s2, s3); !live {
				continue
			}
			visited[u] = epoch
			if coin != nil {
				if live, s0, s1, s2, s3 = stats.Flip(coin(u), s0, s1, s2, s3); !live {
					// The node is reached but would not itself adopt/forward;
					// it still blocks this branch of the reverse walk.
					continue
				}
			}
			dst = append(dst, u)
			q = append(q, u)
		}
	}
	st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	s.queue = q[:0]
	s.EdgesVisited += edges
	return dst
}

// sampleLT continues an RR walk under the linear threshold model: each
// node has at most one live in-edge (its trigger), so the reverse walk is
// a path that ends when no trigger fires or a cycle closes.
func (s *Sampler) sampleLT(root graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	cur := root
	for {
		srcs, ps := s.g.InEdges(cur)
		s.EdgesVisited += int64(len(srcs))
		if len(srcs) == 0 {
			return dst
		}
		r := rng.Float64()
		cum := 0.0
		chosen := graph.NodeID(-1)
		for i, p := range ps {
			cum += float64(p)
			if r < cum {
				chosen = srcs[i]
				break
			}
		}
		if chosen < 0 || s.visited[chosen] == s.epoch {
			return dst
		}
		if s.NodeCoin != nil && !rng.Bool(s.NodeCoin(chosen)) {
			s.visited[chosen] = s.epoch
			return dst
		}
		s.visited[chosen] = s.epoch
		dst = append(dst, chosen)
		cur = chosen
	}
}
