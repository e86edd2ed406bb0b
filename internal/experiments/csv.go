package experiments

import (
	"fmt"
	"time"

	"netalignmc/internal/stats"
)

// CSV renders the Table II data as comma-separated values.
func (r *Table2Result) CSV() string {
	tbl := stats.NewTable("problem", "va", "vb", "el", "nnzs", "paper_va", "paper_vb", "paper_el", "paper_nnzs")
	for i, st := range r.Stats {
		pp := r.Paper[i]
		tbl.AddRow(st.Name, fmt.Sprint(st.VA), fmt.Sprint(st.VB), fmt.Sprint(st.EL), fmt.Sprint(st.NnzS),
			fmt.Sprint(pp.VA), fmt.Sprint(pp.VB), fmt.Sprint(pp.EL), fmt.Sprint(pp.NnzS))
	}
	return tbl.CSV()
}

// CSV renders the Figure 2 points.
func (r *Fig2Result) CSV() string {
	tbl := stats.NewTable("method", "dbar", "obj_fraction", "obj_std", "correct_fraction", "cardinality")
	for _, pt := range r.Points {
		tbl.AddRow(pt.Method, fmt.Sprint(pt.Degree), fmt.Sprintf("%.6f", pt.ObjFraction),
			fmt.Sprintf("%.6f", pt.ObjStd), fmt.Sprintf("%.6f", pt.CorrectMatch), fmt.Sprint(pt.FinalMatching))
	}
	return tbl.CSV()
}

// CSV renders the Figure 3 sweep points.
func (r *Fig3Result) CSV() string {
	tbl := stats.NewTable("problem", "method", "alpha", "beta", "gamma", "weight", "overlap")
	for _, pt := range r.Points {
		tbl.AddRow(r.Problem, pt.Method, fmt.Sprint(pt.Alpha), fmt.Sprint(pt.Beta),
			fmt.Sprint(pt.Gamma), fmt.Sprintf("%.6f", pt.Weight), fmt.Sprintf("%.1f", pt.Overlap))
	}
	return tbl.CSV()
}

// CSV renders the scaling measurements (Figures 4/5).
func (r *ScalingResult) CSV() string {
	tbl := stats.NewTable("problem", "method", "threads", "seconds", "speedup")
	for _, pt := range r.Points {
		tbl.AddRow(r.Problem, pt.Method, fmt.Sprint(pt.Threads),
			fmt.Sprintf("%.6f", pt.Elapsed.Seconds()), fmt.Sprintf("%.4f", pt.Speedup))
	}
	return tbl.CSV()
}

// CSV renders the per-step measurements (Figures 6/7).
func (r *StepScalingResult) CSV() string {
	tbl := stats.NewTable("problem", "method", "step", "threads", "seconds", "fraction")
	for _, pt := range r.Points {
		tbl.AddRow(r.Problem, r.Method, pt.Step, fmt.Sprint(pt.Threads),
			fmt.Sprintf("%.6f", pt.Elapsed.Seconds()), fmt.Sprintf("%.4f", pt.Fraction))
	}
	return tbl.CSV()
}

// CSV renders the matcher comparison.
func (r *MatcherComparisonResult) CSV() string {
	tbl := stats.NewTable("problem", "matcher", "weight", "ratio", "cardinality", "seconds")
	for _, pt := range r.Points {
		tbl.AddRow(r.Problem, pt.Matcher, fmt.Sprintf("%.6f", pt.Weight),
			fmt.Sprintf("%.6f", pt.WeightRatio), fmt.Sprint(pt.Cardinality),
			fmt.Sprintf("%.6f", float64(pt.Elapsed)/float64(time.Second)))
	}
	return tbl.CSV()
}
