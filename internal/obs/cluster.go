package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// NodeReport is one node's telemetry in a ClusterReport: its registry's
// counters, and whether the scheduler has declared the node dead.
type NodeReport struct {
	Host   string           `json:"host"`
	Stale  bool             `json:"stale"`
	Totals map[string]int64 `json:"totals,omitempty"`
}

// ClusterReport is the /cluster.json payload: every node plus the
// cluster totals, its nodes' counters combined by Combine (stale nodes
// included). It is read from the node registries when asked for; a
// reader who wants rates diffs two reports.
type ClusterReport struct {
	Nodes  []NodeReport     `json:"nodes"`
	Totals map[string]int64 `json:"cluster_totals,omitempty"`
}

// Add appends one node and combines its totals into the cluster's.
func (r *ClusterReport) Add(host string, stale bool, totals map[string]int64) {
	if r.Totals == nil {
		r.Totals = make(map[string]int64)
	}
	for name, v := range totals {
		r.Totals[name] = Combine(name, r.Totals[name], v)
	}
	r.Nodes = append(r.Nodes, NodeReport{Host: host, Stale: stale, Totals: totals})
}

// JSON renders the report as indented JSON.
func (r *ClusterReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// WriteText renders the report for humans: one block per node with its
// totals, then the cluster totals.
func (r *ClusterReport) WriteText(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "(no cluster view)")
		return
	}
	fmt.Fprintf(w, "cluster telemetry (%d nodes)\n", len(r.Nodes))
	for _, n := range r.Nodes {
		state := "live"
		if n.Stale {
			state = "STALE"
		}
		fmt.Fprintf(w, "\n  %s  [%s]\n", n.Host, state)
		writeSorted(w, n.Totals)
	}
	if len(r.Totals) > 0 {
		fmt.Fprintf(w, "\n  cluster totals:\n")
		writeSorted(w, r.Totals)
	}
}

func writeSorted(w io.Writer, m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "    %s = %d\n", name, m[name])
	}
}
