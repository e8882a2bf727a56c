package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export for the series-shaped figures, so the plots can be
// regenerated with any external plotting tool.

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// WriteCSV dumps the Figure 1 sparsity series (one row per layer per
// window) to fig1.csv in dir.
func (r *Fig1Result) WriteCSV(dir string) error {
	header := []string{"layer", "size_mb", "window", "mean_sparsity"}
	var rows [][]string
	for i, l := range r.Layers {
		for w, mu := range r.WindowMeans[i] {
			rows = append(rows, []string{
				l,
				strconv.FormatFloat(r.SizesMB[i], 'f', 1, 64),
				strconv.Itoa(w * r.WindowSize),
				strconv.FormatFloat(mu, 'f', 4, 64),
			})
		}
	}
	return writeCSV(dir, "fig1.csv", header, rows)
}

// WriteCSV dumps the Figure 5 kernel surface to fig5.csv.
func (r *Fig5Result) WriteCSV(dir string) error {
	header := []string{"grid", "block", "total_ms"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Grid), strconv.Itoa(p.Block),
			strconv.FormatFloat(p.TotalMS, 'f', 3, 64),
		})
	}
	return writeCSV(dir, "fig5.csv", header, rows)
}

// WriteCSV dumps the Figure 6 normalized throughputs to fig6.csv.
func (r *Fig6Result) WriteCSV(dir string) error {
	header := []string{"gpu", "dataset", "model", "framework", "normalized_throughput", "iteration_s"}
	var rows [][]string
	for _, p := range r.Platforms {
		for _, m := range p.Models() {
			for _, fr := range FrameworkNames {
				rows = append(rows, []string{
					p.GPU, p.Dataset, m, fr,
					strconv.FormatFloat(p.NormalizedThroughput(m, fr), 'f', 4, 64),
					strconv.FormatFloat(p.Cells[m][fr].IterationTime, 'f', 6, 64),
				})
			}
		}
	}
	return writeCSV(dir, "fig6.csv", header, rows)
}

// WriteCSV dumps the Figure 8 per-epoch counts to fig8.csv.
func (r *Fig8Result) WriteCSV(dir string) error {
	header := []string{"model", "epoch", "compressed_layers"}
	var rows [][]string
	for _, model := range Fig8Models {
		for e, c := range r.Models[model] {
			rows = append(rows, []string{model, strconv.Itoa(e), strconv.Itoa(c)})
		}
	}
	return writeCSV(dir, "fig8.csv", header, rows)
}

// WriteCSV dumps the Figure 9 matrix (long form) to fig9.csv.
func (r *Fig9Result) WriteCSV(dir string) error {
	header := []string{"layer", "epoch", "compressed"}
	var rows [][]string
	for i, l := range r.Layers {
		for e := 0; e < r.Epochs; e++ {
			rows = append(rows, []string{l, strconv.Itoa(e), fmt.Sprintf("%v", r.Compressed[i][e])})
		}
	}
	return writeCSV(dir, "fig9.csv", header, rows)
}

// WriteCSV dumps the Figure 12 strategy table to fig12.csv.
func (r *Fig12Result) WriteCSV(dir string) error {
	header := []string{"strategy", "grid", "block", "codec_ms", "rest_ms", "search_evaluations"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy,
			strconv.Itoa(row.Launch.Grid), strconv.Itoa(row.Launch.Block),
			strconv.FormatFloat(row.CodecMS, 'f', 2, 64),
			strconv.FormatFloat(row.RestMS, 'f', 2, 64),
			strconv.Itoa(row.SearchEvaluations),
		})
	}
	return writeCSV(dir, "fig12.csv", header, rows)
}

// WriteAllCSV runs the series-shaped sections and writes every CSV into
// dir.
func WriteAllCSV(cfg Config, dir string) error {
	for _, s := range Sections {
		if !s.csv {
			continue
		}
		r, err := s.Run(cfg)
		if err != nil {
			return err
		}
		if err := r.(csvWriter).WriteCSV(dir); err != nil {
			return err
		}
	}
	return nil
}
