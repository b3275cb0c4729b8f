package obs

import (
	"strings"
	"testing"
)

func TestClusterViewNilAndText(t *testing.T) {
	var r *ClusterReport
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "no cluster view") {
		t.Errorf("nil report text = %q", sb.String())
	}

	rep := &ClusterReport{}
	rep.Add("node0", false, map[string]int64{"shuffle.rdma.bytes": 40, "shuffle.rdma.outstanding.peak": 3})
	rep.Add("node1", true, map[string]int64{"shuffle.rdma.bytes": 2, "tracker.mapoutput.disk.reads": 1, "shuffle.rdma.outstanding.peak": 2})
	if rep.Totals["shuffle.rdma.bytes"] != 42 || rep.Totals["tracker.mapoutput.disk.reads"] != 1 {
		t.Fatalf("cluster totals = %v, want the sum over nodes, stale ones included", rep.Totals)
	}
	if rep.Totals["shuffle.rdma.outstanding.peak"] != 3 {
		t.Fatalf("cluster peak = %d, want the nodes' max", rep.Totals["shuffle.rdma.outstanding.peak"])
	}
	sb.Reset()
	rep.WriteText(&sb)
	txt := sb.String()
	for _, want := range []string{"node0  [live]", "node1  [STALE]", "shuffle.rdma.bytes = 40", "cluster totals", "shuffle.rdma.bytes = 42"} {
		if !strings.Contains(txt, want) {
			t.Errorf("report text missing %q:\n%s", want, txt)
		}
	}
	if out, err := rep.JSON(); err != nil || !strings.Contains(string(out), `"stale": true`) {
		t.Fatalf("report JSON = %s, %v", out, err)
	}
}
