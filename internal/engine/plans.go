package engine

import (
	"context"
	"fmt"
	"runtime/debug"

	"netpowerprop/internal/core"
	"netpowerprop/internal/units"
)

// planRows splits a normalized request into its rows: sweeps per point,
// Table 3 per bandwidth row, row-structured scenarios per table row, and
// everything else into one row holding the whole Result. The split is
// chosen so rows share no mutable state, and every op keeps the row count
// and payload bytes journals were written with. Every branch reproduces
// the corresponding CLI computation exactly. Planners allocate and build
// from request parameters, so a panic while planning is contained like
// one in a row: it comes back as a *PanicError.
func planRows(norm Request) (p *RowPlan, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, err = nil, &PanicError{Val: v, Stack: debug.Stack()}
		}
	}()
	switch norm.Op {
	case OpWhatIf:
		return wholePlan(norm, whatIf), nil
	case OpTable3:
		return planTable3(norm), nil
	case OpFig3:
		return wholePlan(norm, fig3), nil
	case OpFig4:
		return wholePlan(norm, fig4), nil
	case OpSweep:
		return planSweep(norm), nil
	case OpCost:
		return wholePlan(norm, cost), nil
	case OpScenario:
		return scenarios[norm.Scenario].plan(norm)
	}
	return nil, fmt.Errorf("engine: unknown op %q", norm.Op)
}

// runPlan plans a normalized request and computes every row in memory,
// with no JSON: what Do and DoBatch run on a cache miss.
func runPlan(ctx context.Context, norm Request) (*Result, error) {
	p, err := planRows(norm)
	if err != nil {
		return nil, err
	}
	return p.rows.run(ctx, p.n)
}

// wholePlan is a one-row plan whose payload is the entire Result, for ops
// with no natural row structure. A failed row assembles to an empty
// Result of the right op.
func wholePlan(norm Request, compute func(norm Request) (*Result, error)) *RowPlan {
	return NewRowPlan(norm, 1,
		func(context.Context, int) (*Result, error) { return compute(norm) },
		func(rows []*Result) *Result {
			if len(rows) == 0 {
				return &Result{Op: norm.Op, Request: norm}
			}
			return rows[0]
		})
}

// whatIf sizes one cluster scenario.
func whatIf(req Request) (*Result, error) {
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	cl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Op: req.Op, Request: req, Cluster: summarize(cl)}, nil
}

// fig3 evaluates the fixed-workload speedup curves and their crossovers.
func fig3(req Request) (*Result, error) {
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	kind, err := core.ParseBudgetKind(req.Budget)
	if err != nil {
		return nil, err
	}
	curves, err := core.Fig3Parallel(cfg, core.Table3Bandwidths(), req.Proportionalities, kind, 0)
	if err != nil {
		return nil, err
	}
	cross, err := core.BestBandwidth(curves)
	if err != nil {
		return nil, err
	}
	return &Result{Op: req.Op, Request: req, Curves: curvesOf(curves), Crossovers: crossoversOf(cross)}, nil
}

// fig4 evaluates the fixed-comm-ratio speedup curves.
func fig4(req Request) (*Result, error) {
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	kind, err := core.ParseBudgetKind(req.Budget)
	if err != nil {
		return nil, err
	}
	curves, err := core.Fig4Parallel(cfg, core.Table3Bandwidths(), req.Proportionalities,
		req.FixedCommRatio, kind, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Op: req.Op, Request: req, Curves: curvesOf(curves)}, nil
}

// planSweep splits a proportionality sweep into one row per point: steps+1
// clusters from 0 to 1, savings relative to the proportionality-0 row.
func planSweep(norm Request) *RowPlan {
	return NewRowPlan(norm, norm.Steps+1,
		func(_ context.Context, i int) (SweepPoint, error) { return sweepRow(norm, i) },
		func(pts []SweepPoint) *Result { return &Result{Op: norm.Op, Request: norm, Sweep: pts} })
}

// sweepRow computes one sweep point independently of every other point:
// the proportionality-0 reference is recomputed per row (the model is
// analytic, so this is cheap and bit-deterministic), which lets the jobs
// subsystem checkpoint and resume a sweep row by row while producing the
// exact bytes of a serial sweep.
func sweepRow(req Request, i int) (SweepPoint, error) {
	cfg, err := req.config()
	if err != nil {
		return SweepPoint{}, err
	}
	refCfg := cfg
	refCfg.NetworkProportionality = 0
	refCl, err := core.New(refCfg)
	if err != nil {
		return SweepPoint{}, err
	}
	refPower := refCl.AveragePower()
	p := float64(i) / float64(req.Steps)
	c := cfg
	c.NetworkProportionality = p
	cl, err := core.New(c)
	if err != nil {
		return SweepPoint{}, err
	}
	avg := cl.AveragePower()
	return SweepPoint{
		Proportionality:   p,
		AveragePower:      powerQ(avg),
		PeakPower:         powerQ(cl.PeakPower()),
		NetworkShare:      cl.NetworkShare(),
		NetworkEfficiency: cl.NetworkEfficiency(),
		Savings:           float64(refPower-avg) / float64(refPower),
	}, nil
}

// table3Row is one Table 3 bandwidth row, and its journaled payload.
type table3Row struct {
	Bandwidth Quantity   `json:"bandwidth"`
	Cells     []GridCell `json:"cells"`
}

// planTable3 splits the savings grid by bandwidth row: the grid's
// reference power is per bandwidth, so rows are naturally independent.
func planTable3(norm Request) *RowPlan {
	bws := core.Table3Bandwidths()
	return NewRowPlan(norm, len(bws),
		func(_ context.Context, i int) (table3Row, error) {
			cfg, err := norm.config()
			if err != nil {
				return table3Row{}, err
			}
			grid, err := core.ComputeSavingsGrid(cfg, []units.Bandwidth{bws[i]},
				core.Table3Proportionalities(), cfg.NetworkProportionality)
			if err != nil {
				return table3Row{}, err
			}
			row := table3Row{Bandwidth: bandwidthQ(bws[i]), Cells: make([]GridCell, len(grid.Proportionalities))}
			for j := range grid.Proportionalities {
				c := grid.Cell(0, j)
				row.Cells[j] = GridCell{
					Savings:      c.Savings,
					AveragePower: powerQ(c.AveragePower),
					SavedPower:   powerQ(c.SavedPower),
				}
			}
			return row, nil
		},
		func(rows []table3Row) *Result {
			g := &Grid{
				RefProportionality: *norm.NetworkProportionality,
				Interp:             norm.Interp,
				Proportionalities:  core.Table3Proportionalities(),
			}
			for _, row := range rows {
				g.Bandwidths = append(g.Bandwidths, row.Bandwidth)
				g.Cells = append(g.Cells, row.Cells)
			}
			return &Result{Op: norm.Op, Request: norm, Grid: g}
		})
}

// cost reproduces §3.2: the power saved by lifting the scenario's network
// proportionality from the 10% baseline to the requested value,
// annualized with the given cost model.
func cost(req Request) (*Result, error) {
	const refProp = 0.10
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	prop := *req.NetworkProportionality
	grid, err := core.ComputeSavingsGrid(cfg, []units.Bandwidth{cfg.Bandwidth}, []float64{prop}, refProp)
	if err != nil {
		return nil, err
	}
	saved := grid.Cell(0, 0).SavedPower
	model := core.CostModel{PricePerKWh: *req.Price, CoolingOverhead: *req.Cooling}
	s, err := model.Annualize(saved)
	if err != nil {
		return nil, err
	}
	return &Result{Op: req.Op, Request: req, Cost: &CostResult{
		Proportionality:    prop,
		RefProportionality: refProp,
		SavedPower:         powerQ(saved),
		ElectricityPerYear: s.ElectricityPerYear,
		CoolingPerYear:     s.CoolingPerYear,
		TotalPerYear:       s.Total(),
	}}, nil
}
