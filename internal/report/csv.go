package report

// CSV export of every experiment so external plotting/tracking tools can
// consume the evaluation (cmd/repro -csv <dir>).

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Table1CSV writes the NAND2 trade-off rows.
func Table1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"state", "version", "leak_nA", "riseA", "riseB", "fallA", "fallB"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.State, r.Kind.String(), f(r.LeakNA),
			f(r.RiseDelay[0]), f(r.RiseDelay[1]), f(r.FallDelay[0]), f(r.FallDelay[1]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table2CSV writes library-size rows.
func Table2CSV(w io.Writer, rows []Table2Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cell", "four_option", "two_option", "paper_four", "paper_two"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Cell, strconv.Itoa(r.FourOpt), strconv.Itoa(r.TwoOpt),
			strconv.Itoa(r.PaperFour), strconv.Itoa(r.PaperTwo),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table3CSV writes one row per (circuit, penalty).
func Table3CSV(w io.Writer, rows []Table3Row) error {
	cw := csv.NewWriter(w)
	header := []string{"circuit", "avg_uA", "penalty", "heu1_uA", "heu1_x", "heu1_ms", "heu2_uA", "heu2_x", "heu2_ms"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			rec := []string{
				r.Name, f(r.AvgUA), f(c.Penalty),
				f(c.Heu1LeakUA), f(c.Heu1X), strconv.FormatInt(c.Heu1Time.Milliseconds(), 10),
				f(c.Heu2LeakUA), f(c.Heu2X), strconv.FormatInt(c.Heu2Time.Milliseconds(), 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table4CSV writes one row per (circuit, penalty).
func Table4CSV(w io.Writer, rows []Table4Row) error {
	cw := csv.NewWriter(w)
	header := []string{"circuit", "inputs", "gates", "avg_uA", "state_only_uA", "state_only_x",
		"penalty", "vt_state_uA", "vt_state_x", "heu1_uA", "heu1_x"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			rec := []string{
				r.Name, strconv.Itoa(r.Inputs), strconv.Itoa(r.Gates),
				f(r.AvgUA), f(r.StateOnlyUA), f(r.StateOnlyX),
				f(c.Penalty), f(c.VtStateLeakUA), f(c.VtStateX), f(c.Heu1LeakUA), f(c.Heu1X),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table5CSV writes one row per (circuit, policy).
func Table5CSV(w io.Writer, rows []Table5Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"circuit", "avg_uA", "policy", "leak_uA", "x"}); err != nil {
		return err
	}
	for _, r := range rows {
		for i := range r.LeakUA {
			rec := []string{r.Name, f(r.AvgUA), Table5PolicyNames[i], f(r.LeakUA[i]), f(r.X[i])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Figure5CSV writes the delay-penalty sweep.
func Figure5CSV(w io.Writer, name string, pts []Fig5Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"circuit", "penalty", "proposed_uA", "state_only_uA", "average_uA"}); err != nil {
		return err
	}
	for _, pt := range pts {
		rec := []string{name, f(pt.Penalty), f(pt.Heu1UA), f(pt.StateOnlyUA), f(pt.AvgUA)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile is a small helper used by cmd/repro.
func WriteCSVFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return f.Close()
}
