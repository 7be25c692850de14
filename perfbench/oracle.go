package main

// Output correctness: every distinct spec is run once in-process
// through server.RunLocal before any timing starts, and every answer
// the service gives must match that result bitwise, sweep variants and
// quotes included.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/server"
)

// computeOracle fills want and occ for every spec. The base specs share
// one artifact cache, as they share a book; each fresh spec gets a
// cache of its own, dropped once it is answered, so the fresh YETs are
// never resident all at once.
func computeOracle(base, fresh []*jobSpec) error {
	shared := artifact.NewCache(len(base) * 4)
	for _, s := range base {
		if err := oracleFor(shared, s); err != nil {
			return err
		}
	}
	for _, s := range fresh {
		if err := oracleFor(artifact.NewCache(0), s); err != nil {
			return err
		}
	}
	return nil
}

func oracleFor(cache *artifact.Cache, s *jobSpec) error {
	res, _, err := server.RunLocal(context.Background(), cache, s.js)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	table, _, err := artifact.TableFor(cache, s.js)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	s.want, s.occ = res, int64(table.NumOccurrences())
	return nil
}

// verify decodes a served result body and compares it to the oracle.
func verify(s *jobSpec, body []byte) error {
	var got server.JobResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	w := s.want
	if got.Trials != w.Trials {
		return fmt.Errorf("trials %d, want %d", got.Trials, w.Trials)
	}
	if err := eqLayers(got.Layers, w.Layers); err != nil {
		return err
	}
	if len(got.Variants) != len(w.Variants) {
		return fmt.Errorf("%d variants, want %d", len(got.Variants), len(w.Variants))
	}
	for k := range got.Variants {
		gv, wv := got.Variants[k], w.Variants[k]
		if gv.Index != wv.Index || gv.Name != wv.Name {
			return fmt.Errorf("variant %d is %d/%q, want %d/%q", k, gv.Index, gv.Name, wv.Index, wv.Name)
		}
		if err := eqLayers(gv.Layers, wv.Layers); err != nil {
			return fmt.Errorf("variant %d: %w", k, err)
		}
	}
	return nil
}

func eqLayers(got, want []server.LayerResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d layers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Name != w.Name {
			return fmt.Errorf("layer %d is %d/%q, want %d/%q", i, g.ID, g.Name, w.ID, w.Name)
		}
		if err := eqQuote(g.Quote, w.Quote); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
		if g.Summary != w.Summary || g.OccSummary != w.OccSummary {
			return fmt.Errorf("layer %d summary %+v/%+v, want %+v/%+v", i, g.Summary, g.OccSummary, w.Summary, w.OccSummary)
		}
		if err := eqPoints(g.EP, w.EP); err != nil {
			return fmt.Errorf("layer %d AEP: %w", i, err)
		}
		if err := eqPoints(g.OEP, w.OEP); err != nil {
			return fmt.Errorf("layer %d OEP: %w", i, err)
		}
	}
	return nil
}

// eqF is bitwise float equality with NaN equal to NaN.
func eqF(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func eqPoints(got, want []server.PointJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if !eqF(got[i].ReturnPeriod, want[i].ReturnPeriod) || !eqF(got[i].Prob, want[i].Prob) || !eqF(got[i].Loss, want[i].Loss) {
			return fmt.Errorf("point %d %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func eqQuote(got, want *server.QuoteJSON) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("quote present %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	g, w := *got, *want
	if !eqF(g.ExpectedLoss, w.ExpectedLoss) || !eqF(g.StdDev, w.StdDev) || !eqF(g.RiskLoad, w.RiskLoad) ||
		!eqF(g.ExpenseLoad, w.ExpenseLoad) || !eqF(g.TechnicalPremium, w.TechnicalPremium) ||
		!eqF(g.RateOnLine, w.RateOnLine) || !eqF(g.PML100, w.PML100) || !eqF(g.TVaR99, w.TVaR99) {
		return fmt.Errorf("quote %+v, want %+v", g, w)
	}
	return nil
}
