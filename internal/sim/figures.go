package sim

import (
	"fmt"
	"strings"

	"rdmamr/internal/fabric"
	"rdmamr/internal/storage"
)

// Series is one figure line: a legend label plus one job time per X
// value.
type Series struct {
	Label   string
	Seconds []float64
}

// Figure is a regenerated evaluation figure.
type Figure struct {
	Name   string
	XLabel string
	XTicks []string
	Series []Series
}

// String renders the figure as an aligned text table.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Name)
	fmt.Fprintf(&b, "%-34s", f.XLabel)
	for _, x := range f.XTicks {
		fmt.Fprintf(&b, "%12s", x)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-34s", s.Label)
		for _, v := range s.Seconds {
			fmt.Fprintf(&b, "%12.0f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// combo names one (design, fabric) pair as the figure legends do.
type combo struct {
	label  string
	design Design
	fabric fabric.Kind
}

var (
	c1GigE   = combo{"1GigE", Vanilla, fabric.GigE1}
	c10GigE  = combo{"10GigE", Vanilla, fabric.TenGigE}
	cIPoIB   = combo{"IPoIB (32Gbps)", Vanilla, fabric.IPoIB}
	cHadoopA = combo{"HadoopA-IB (32Gbps)", HadoopA, fabric.IBVerbs}
	cOSUIB   = combo{"OSU-IB (32Gbps)", OSUIB, fabric.IBVerbs}
)

func runCombo(c combo, w Workload, sk storage.DeviceKind, nodes int, dataBytes, ramBytes float64) float64 {
	p := DefaultParams(c.design, c.fabric, sk, w, nodes, dataBytes)
	if ramBytes > 0 {
		p.RAMBytes = ramBytes
	}
	res, err := Run(p)
	if err != nil {
		panic(fmt.Sprintf("sim: %s: %v", c.label, err))
	}
	return res.JobSeconds
}

const gb = 1e9

// Fig4a regenerates Figure 4(a): TeraSort on 4 nodes, 20–40 GB, each
// interconnect with 1 and 2 HDDs.
func Fig4a() Figure {
	sizes := []float64{20 * gb, 30 * gb, 40 * gb}
	f := Figure{Name: "Figure 4(a): TeraSort, 4-node cluster", XLabel: "Sort Size (GB)", XTicks: []string{"20", "30", "40"}}
	for _, c := range []combo{c10GigE, cIPoIB, cHadoopA, cOSUIB} {
		for _, sk := range []storage.DeviceKind{storage.HDD1, storage.HDD2} {
			s := Series{Label: c.label + " " + sk.String()}
			for _, sz := range sizes {
				s.Seconds = append(s.Seconds, runCombo(c, TeraSort, sk, 4, sz, 0))
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// Fig4b regenerates Figure 4(b): TeraSort on 8 nodes, 60–100 GB.
func Fig4b() Figure {
	sizes := []float64{60 * gb, 80 * gb, 100 * gb}
	f := Figure{Name: "Figure 4(b): TeraSort, 8-node cluster", XLabel: "Sort Size (GB)", XTicks: []string{"60", "80", "100"}}
	for _, c := range []combo{c1GigE, cIPoIB, cHadoopA, cOSUIB} {
		for _, sk := range []storage.DeviceKind{storage.HDD1, storage.HDD2} {
			s := Series{Label: c.label + " " + sk.String()}
			for _, sz := range sizes {
				s.Seconds = append(s.Seconds, runCombo(c, TeraSort, sk, 8, sz, 0))
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// Fig5 regenerates Figure 5: TeraSort at 100 GB on 12 nodes and 200 GB on
// 24 nodes, on storage nodes with 24 GB RAM.
func Fig5() Figure {
	type point struct {
		nodes int
		size  float64
	}
	points := []point{{12, 100 * gb}, {24, 200 * gb}}
	f := Figure{Name: "Figure 5: TeraSort, larger clusters (storage nodes, 24GB RAM)", XLabel: "Sort Size", XTicks: []string{"100GB-12nodes", "200GB-24nodes"}}
	for _, c := range []combo{c1GigE, cIPoIB, cHadoopA, cOSUIB} {
		s := Series{Label: c.label}
		for _, pt := range points {
			s.Seconds = append(s.Seconds, runCombo(c, TeraSort, storage.HDD2, pt.nodes, pt.size, 24e9))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig6a regenerates Figure 6(a): Sort on 4 nodes, 5–20 GB, single HDD.
func Fig6a() Figure {
	sizes := []float64{5 * gb, 10 * gb, 15 * gb, 20 * gb}
	f := Figure{Name: "Figure 6(a): Sort, 4-node cluster", XLabel: "Sort Size (GB)", XTicks: []string{"5", "10", "15", "20"}}
	for _, c := range []combo{c1GigE, cIPoIB, cHadoopA, cOSUIB} {
		s := Series{Label: c.label}
		for _, sz := range sizes {
			s.Seconds = append(s.Seconds, runCombo(c, Sort, storage.HDD1, 4, sz, 0))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig6b regenerates Figure 6(b): Sort on 8 nodes, 25–40 GB.
func Fig6b() Figure {
	sizes := []float64{25 * gb, 30 * gb, 35 * gb, 40 * gb}
	f := Figure{Name: "Figure 6(b): Sort, 8-node cluster", XLabel: "Sort Size (GB)", XTicks: []string{"25", "30", "35", "40"}}
	for _, c := range []combo{c1GigE, cIPoIB, cHadoopA, cOSUIB} {
		s := Series{Label: c.label}
		for _, sz := range sizes {
			s.Seconds = append(s.Seconds, runCombo(c, Sort, storage.HDD1, 8, sz, 0))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig7 regenerates Figure 7: Sort with SSD data stores, 4 nodes, 5–20 GB.
func Fig7() Figure {
	sizes := []float64{5 * gb, 10 * gb, 15 * gb, 20 * gb}
	f := Figure{Name: "Figure 7: Sort with SSD, 4-node cluster", XLabel: "Sort Size (GB)", XTicks: []string{"5", "10", "15", "20"}}
	for _, c := range []combo{c1GigE, cIPoIB, cHadoopA, cOSUIB} {
		s := Series{Label: c.label}
		for _, sz := range sizes {
			s.Seconds = append(s.Seconds, runCombo(c, Sort, storage.SSD, 4, sz, 0))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig8 regenerates Figure 8: the caching ablation — Sort on SSD with
// IPoIB, OSU-IB without caching, and OSU-IB with caching.
func Fig8() Figure {
	sizes := []float64{5 * gb, 10 * gb, 15 * gb, 20 * gb}
	f := Figure{Name: "Figure 8: Effect of the caching mechanism (Sort, SSD)", XLabel: "Sort Size (GB)", XTicks: []string{"5", "10", "15", "20"}}

	ipoib := Series{Label: "IPoIB"}
	for _, sz := range sizes {
		ipoib.Seconds = append(ipoib.Seconds, runCombo(cIPoIB, Sort, storage.SSD, 4, sz, 0))
	}
	f.Series = append(f.Series, ipoib)

	for _, caching := range []bool{false, true} {
		label := "OSU-IB (Without Caching Enabled)"
		if caching {
			label = "OSU-IB (With Caching Enabled)"
		}
		s := Series{Label: label}
		for _, sz := range sizes {
			p := DefaultParams(OSUIB, fabric.IBVerbs, storage.SSD, Sort, 4, sz)
			p.Caching = caching
			res, err := Run(p)
			if err != nil {
				panic(err)
			}
			s.Seconds = append(s.Seconds, res.JobSeconds)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// AllFigures regenerates every evaluation figure, in paper order.
func AllFigures() []Figure {
	return []Figure{Fig4a(), Fig4b(), Fig5(), Fig6a(), Fig6b(), Fig7(), Fig8()}
}

// FigScaling is an extension experiment beyond the paper (its §VI future
// work: "we will also evaluate our design on larger clusters"): weak
// scaling at 12.5 GB per node, 4 to 32 nodes, single HDD. Flat lines are
// perfect weak scaling; the interesting output is how the OSU design's
// advantage holds as the reduce fan-in grows with the cluster.
func FigScaling() Figure {
	nodes := []int{4, 8, 16, 32}
	f := Figure{Name: "Extension: weak scaling, TeraSort at 12.5 GB/node (1 HDD)", XLabel: "Nodes"}
	for _, n := range nodes {
		f.XTicks = append(f.XTicks, fmt.Sprintf("%d", n))
	}
	for _, c := range []combo{cIPoIB, cHadoopA, cOSUIB} {
		s := Series{Label: c.label}
		for _, n := range nodes {
			s.Seconds = append(s.Seconds, runCombo(c, TeraSort, storage.HDD1, n, 12.5*gb*float64(n), 0))
		}
		f.Series = append(f.Series, s)
	}
	return f
}
