package experiments

import "fmt"

// Section is one row of the evaluation: a driver, the heading `cswap
// report` prints it under, and the `cswap` subcommand that prints it on
// its own ("" for a report-only section).
type Section struct {
	// Key names the section in flags: -skip-fig11 drops "fig11".
	Key   string
	Title string
	Sub   string
	Run   func(Config) (fmt.Stringer, error)
	// csv records that Run's result type has a WriteCSV.
	csv bool
}

// Sections is the whole evaluation in report order. `cswap report` ranges
// over all of it, each figure subcommand over the rows it owns (so a
// subcommand prints its sections in this order), and WriteAllCSV over the
// rows whose results are series.
var Sections = []Section{
	section("intro", "Introduction claims", "", IntroClaims),
	section("fig1", "Figure 1 — sparsity profile", "profile", Fig1),
	section("fig2", "Figure 2 — execution flows", "model", func(c Config) (text, error) {
		s, err := Fig2Timeline(c)
		return text(s), err
	}),
	section("fig3", "Figure 3 — static compression", "model", Fig3),
	section("fig5", "Figure 5 — kernel surface", "tune", Fig5),
	section("fig6", "Figure 6 — framework throughput", "sim", Fig6),
	section("fig7", "Figure 7 — CSWAP vs SC", "sim", Fig7),
	section("fig8", "Figure 8 — compressed layers per epoch", "profile", Fig8),
	section("fig9", "Figure 9 — VGG16 compression matrix", "profile", Fig9),
	section("fig10", "Figure 10 — time-model accuracy", "model", Fig10),
	section("fig11", "Figure 11 — decision accuracy", "model", Fig11),
	section("fig12", "Figure 12 — search strategies", "tune", Fig12),
	section("overheads", "Section V-E — overheads", "tune", Overheads),
	section("links", "Interconnect sweep (extension)", "tune", LinkSweep),
	section("sparsity", "Sparsity sweep (extension)", "tune", SparsitySweep),
	section("generations", "GPU-generation sweep (extension)", "tune", GenerationSweep),
	section("ablations", "Design-choice ablations", "ablate", Ablations),
	section("headline", "Headline metrics", "sim", Headline),
}

// csvWriter is a result that is also a plottable series.
type csvWriter interface{ WriteCSV(dir string) error }

// section builds a row from a typed driver, so the table lists the drivers
// themselves and whether a result has a CSV form is read off its type.
func section[R fmt.Stringer](key, title, sub string, run func(Config) (R, error)) Section {
	var zero R
	_, csv := any(zero).(csvWriter)
	return Section{Key: key, Title: title, Sub: sub, csv: csv,
		Run: func(c Config) (fmt.Stringer, error) { return run(c) }}
}

// text is a driver result that is already rendered.
type text string

func (t text) String() string { return string(t) }
