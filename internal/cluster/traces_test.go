package cluster_test

import (
	"net/http"
	"testing"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// TestCrossTierSpanAssembly drives one allocate through a two-shard
// router and asserts GET /v1/traces/{id} on the router returns a single
// merged span tree: the router's edge spans are ancestors of the owning
// shard's execution spans, timestamps are monotone within each process,
// and the tree's resource totals match the flat accounting on the job
// view. This is the waterfall the whole trace pipeline exists to serve.
func TestCrossTierSpanAssembly(t *testing.T) {
	svcOpts := service.Options{TraceSample: 1}
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", svcOpts),
		startBackendAt(t, "b1", "127.0.0.1:0", svcOpts),
	}
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour, ProxyTimeout: 10 * time.Second,
		TraceSample: 1,
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(12)
	jobID := c.submit("/v1/allocate", service.AllocateRequest{
		GraphID: info.ID, Budgets: []int{3, 3}, Runs: 2000,
	})
	if view := c.waitJob(jobID); view.State != service.JobDone {
		t.Fatalf("allocate ended %q: %s", view.State, view.Error)
	}
	var view service.JobView
	c.doJSON("GET", "/v1/jobs/"+jobID, nil, &view, http.StatusOK)
	if view.TraceID == "" {
		t.Fatal("job carries no trace id")
	}

	var tree service.TraceTreeResponse
	c.doJSON("GET", "/v1/traces/"+view.TraceID, nil, &tree, http.StatusOK)
	if tree.TraceID != view.TraceID {
		t.Fatalf("tree trace_id = %q, want %q", tree.TraceID, view.TraceID)
	}
	if tree.Partial {
		t.Fatalf("assembly partial: %v", tree.Errors)
	}

	// Both tiers contributed spans, each stamped with its node.
	byNode := map[string][]service.TraceSpan{}
	byID := map[string]service.TraceSpan{}
	for _, sp := range tree.Spans {
		if sp.Node == "" {
			t.Fatalf("span %q has no node stamp", sp.Stage)
		}
		byNode[sp.Node] = append(byNode[sp.Node], sp)
		byID[sp.ID] = sp
	}
	routerSpans := byNode["router"]
	if len(routerSpans) == 0 {
		t.Fatalf("no router-side spans in tree: %+v", tree.Spans)
	}
	var shardNode string
	for node := range byNode {
		if node != "router" {
			shardNode = node
		}
	}
	if shardNode == "" {
		t.Fatalf("no shard-side spans in tree: %+v", tree.Spans)
	}
	if len(byNode) != 2 {
		t.Fatalf("spans from %d nodes, want router + one shard: %v", len(byNode), byNode)
	}
	stages := map[string]bool{}
	for _, sp := range tree.Spans {
		stages[sp.Node+"/"+sp.Stage] = true
	}
	for _, want := range []string{"router/dispatch", "router/proxy", shardNode + "/greedy_select"} {
		if !stages[want] {
			t.Errorf("tree missing span %s (have %v)", want, stages)
		}
	}

	// Every shard span's ancestry must pass through a router span: the
	// backend trace adopted the router's proxy span id as its parent.
	isRouterSpan := map[string]bool{}
	for _, sp := range routerSpans {
		isRouterSpan[sp.ID] = true
	}
	for _, sp := range byNode[shardNode] {
		seen := map[string]bool{}
		cur := sp
		for {
			if isRouterSpan[cur.Parent] {
				break
			}
			parent, ok := byID[cur.Parent]
			if !ok || seen[cur.Parent] {
				t.Fatalf("shard span %q ancestry never reaches a router span (stuck at parent %q)", sp.Stage, cur.Parent)
			}
			seen[cur.Parent] = true
			cur = parent
		}
	}

	// Timestamps are monotone within each process: a child never starts
	// before its same-node parent, and the whole list is start-sorted.
	for i := 1; i < len(tree.Spans); i++ {
		if tree.Spans[i].StartUnixNS < tree.Spans[i-1].StartUnixNS {
			t.Fatalf("spans not start-sorted at %d: %+v", i, tree.Spans)
		}
	}
	for _, sp := range tree.Spans {
		parent, ok := byID[sp.Parent]
		if !ok || parent.Node != sp.Node {
			continue
		}
		if sp.StartUnixNS < parent.StartUnixNS {
			t.Errorf("%s/%s starts before its parent %s", sp.Node, sp.Stage, parent.Stage)
		}
	}

	// The tree's merged resource totals equal the job view's flat ones.
	if len(view.Resources) == 0 {
		t.Fatal("job view carries no resource totals")
	}
	for kind, want := range view.Resources {
		if got := tree.Resources[kind]; got != want {
			t.Errorf("tree resources[%s] = %d, want job view's %d", kind, got, want)
		}
	}

	// The merged list view finds the same trace behind the composite
	// cursor, and the exemplar on the router's merged export names a
	// retrievable trace.
	var page cluster.ClusterTracesResponse
	c.doJSON("GET", "/v1/traces?route=allocate", nil, &page, http.StatusOK)
	// Both tiers retained a fragment under the id, so the merged list
	// shows the trace once per source store.
	fragNodes := map[string]bool{}
	for _, rec := range page.Traces {
		if rec.TraceID == view.TraceID {
			fragNodes[rec.Node] = true
			if len(rec.Spans) != 0 {
				t.Error("list view leaked span records")
			}
		}
	}
	if !fragNodes[shardNode] || !fragNodes["router"] {
		t.Fatalf("merged /v1/traces fragments from %v, want router and %s", fragNodes, shardNode)
	}
	if page.NextCursor == "" {
		t.Error("merged page has no composite cursor")
	}

	var export telemetry.Export
	c.doJSON("GET", "/v1/metrics?format=json", nil, &export, http.StatusOK)
	exemplar := ""
	for _, h := range export.Histograms {
		if h.Name != "welmax_job_duration_seconds" {
			continue
		}
		for _, ex := range h.Exemplars {
			exemplar = ex.TraceID
		}
	}
	if exemplar == "" {
		t.Fatal("merged export carries no job-duration exemplar")
	}
	var exTree service.TraceTreeResponse
	c.doJSON("GET", "/v1/traces/"+exemplar, nil, &exTree, http.StatusOK)
	if len(exTree.Spans) == 0 {
		t.Errorf("exemplar trace %s resolved to an empty tree", exemplar)
	}
}
