package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list. Each non-empty
// line not starting with '#' or '%' is "u v" or "u v p". Node ids may be
// arbitrary non-negative integers; they are compacted to 0..n-1 in first-
// appearance order. If a line omits p the probability defaults to 0 and
// should be reset afterwards with WeightedCascade or UniformProb. When
// undirected is true every edge is inserted in both directions.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	type rawEdge struct {
		u, v NodeID
		p    float64
	}
	var raw []rawEdge
	ids := make(map[int64]NodeID)
	intern := func(x int64) NodeID {
		if id, ok := ids[x]; ok {
			return id
		}
		id := NodeID(len(ids))
		ids[x] = id
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineno, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineno, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q", lineno, fields[1])
		}
		p := 0.0
		if len(fields) >= 3 {
			p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("graph: line %d: bad probability %q", lineno, fields[2])
			}
		}
		raw = append(raw, rawEdge{intern(u), intern(v), p})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	b := NewBuilder(len(ids))
	for _, e := range raw {
		if undirected {
			b.AddUndirected(e.u, e.v, e.p)
		} else {
			b.AddEdge(e.u, e.v, e.p)
		}
	}
	return b.Build(), nil
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, undirected)
}

// WriteEdgeList writes the graph as "u v p" lines, one directed edge per
// line, preceded by a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M())
	for u := NodeID(0); int(u) < g.N(); u++ {
		ts, ps := g.OutEdges(u)
		for i, v := range ts {
			fmt.Fprintf(bw, "%d %d %g\n", u, v, ps[i])
		}
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file on disk.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
