package problemio

import (
	"bufio"
	"fmt"
	"io"

	"netalignmc/internal/core"
)

// writeCheckpointV1 is WriteCheckpoint as it was while checkpoints
// were version-1 text: every value in hexadecimal floating-point
// notation, eight per line. It produces the version-1 inputs that
// ReadCheckpoint must keep reading.
func writeCheckpointV1(w io.Writer, c *core.Checkpoint) error {
	if c == nil {
		return fmt.Errorf("problemio: nil checkpoint")
	}
	if c.Method != "bp" && c.Method != "mr" {
		return fmt.Errorf("problemio: checkpoint method %q is not bp or mr", c.Method)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "netalign-checkpoint 1\n")
	fmt.Fprintf(bw, "method %s\n", c.Method)
	fmt.Fprintf(bw, "iter %d\n", c.Iter)
	fmt.Fprintf(bw, "problem %d %d %d %d %s %s\n", c.NA, c.NB, c.EL, c.NNZ, fmtFloat(c.Alpha), fmtFloat(c.Beta))
	fmt.Fprintf(bw, "guard %s %d\n", fmtFloat(c.Tighten), c.Failures)
	if c.Method == "bp" {
		fmt.Fprintf(bw, "bp %s\n", fmtFloat(c.GammaK))
	} else {
		have := 0
		if c.HaveUpper {
			have = 1
		}
		fmt.Fprintf(bw, "mr %s %s %d %d\n", fmtFloat(c.Gamma), fmtFloat(c.BestUpper), have, c.SinceImproved)
	}
	has := 0
	if c.HasBest {
		has = 1
	}
	fmt.Fprintf(bw, "tracker %d %d %d %s\n", has, c.BestIter, c.Evaluations, fmtFloat(c.BestObjective))
	writeVec := func(name string, v []float64) {
		fmt.Fprintf(bw, "vec %s %d\n", name, len(v))
		for i, x := range v {
			if i%8 == 7 || i == len(v)-1 {
				fmt.Fprintf(bw, "%s\n", fmtFloat(x))
			} else {
				fmt.Fprintf(bw, "%s ", fmtFloat(x))
			}
		}
	}
	if c.Method == "bp" {
		writeVec("y", c.Y)
		writeVec("z", c.Z)
		writeVec("sk", c.SK)
	} else {
		writeVec("u", c.U)
	}
	if c.HasBest {
		writeVec("bestheur", c.BestHeuristic)
		fmt.Fprintf(bw, "mates %d\n", len(c.BestMateA))
		for i, m := range c.BestMateA {
			if i%16 == 15 || i == len(c.BestMateA)-1 {
				fmt.Fprintf(bw, "%d\n", m)
			} else {
				fmt.Fprintf(bw, "%d ", m)
			}
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}
