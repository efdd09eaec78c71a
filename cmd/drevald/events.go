package main

import (
	"sort"

	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/slo"
)

// Wide-event journal + SLO engine wiring: every instrumented compute
// request (/evaluate, /diagnose, /ingest) emits exactly one flat
// canonical event into the server's journal; its SLO engine observes
// the full (pre-sampling) stream and turns it into multi-window burn
// rates and an ok → warning → page state machine. Queryable on the
// service and debug muxes as GET /debug/events (filter language) and
// GET /debug/slo; counters and gauges on /metrics (synced at scrape
// time by syncMetrics); rollups on /healthz and /debug/vars.

// sloTransition is the engine hook: log every state change, count it,
// and maintain the active-page set that handlers fold into degraded
// responses when -degrade-on-slo-page is set.
func (s *Server) sloTransition(tr slo.Transition) {
	sloTransitionsTotal.Inc()
	s.log.Warn("slo transition",
		"objective", tr.Objective,
		"from", tr.From.String(),
		"to", tr.To.String(),
		"window", tr.Window,
		"burn", tr.Burn,
	)
	s.pageMu.Lock()
	defer s.pageMu.Unlock()
	if tr.To == slo.StatePage {
		s.pages[tr.Objective] = resilience.SLOBurnReason(tr.Objective, tr.Burn, tr.Threshold)
	} else {
		delete(s.pages, tr.Objective)
	}
}

// sloDegradeReasons returns the active page-severity burn reasons in
// objective order (deterministic), or nil when -degrade-on-slo-page
// is off or nothing is paging. Burn state advances on Eval — scrapes,
// /debug/slo and /healthz — not per request, so the per-request cost
// here is one mutex hold over a tiny map.
func (s *Server) sloDegradeReasons() []resilience.Reason {
	if !s.cfg.DegradeOnSLOPage {
		return nil
	}
	s.pageMu.Lock()
	defer s.pageMu.Unlock()
	if len(s.pages) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.pages))
	for name := range s.pages {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]resilience.Reason, 0, len(names))
	for _, name := range names {
		out = append(out, s.pages[name])
	}
	return out
}

// reasonCodes projects degradation reasons onto their machine-readable
// codes — the wide event carries the codes, not the prose.
func reasonCodes(reasons []resilience.Reason) []string {
	out := make([]string, len(reasons))
	for i, r := range reasons {
		out[i] = r.Code
	}
	return out
}

// Journal and SLO series. The counters are created eagerly (a zero
// reading is the healthy signal operators alert on disappearing) and
// advanced by syncMetrics from the server's journal.
var (
	sloTransitionsTotal    = obs.Default.Counter("drevald_slo_transitions_total")
	eventsEmittedTotal     = obs.Default.Counter("drevald_events_emitted_total")
	eventsSampledOutTotal  = obs.Default.Counter("drevald_events_sampled_out_total")
	eventsSinkDroppedTotal = obs.Default.Counter("drevald_events_sink_dropped_total")
)

func init() {
	obs.Default.Help("drevald_slo_transitions_total", "SLO alert state changes (ok, warning, page — any direction).")
	obs.Default.Help("drevald_slo_state", "Current alert state per objective: 0 ok, 1 warning, 2 page.")
	obs.Default.Help("drevald_slo_budget_remaining", "Unspent error-budget fraction over the longest window, per objective (negative = overspent).")
	obs.Default.Help("drevald_events_emitted_total", "Wide events emitted by completed requests (before tail sampling).")
	obs.Default.Help("drevald_events_sampled_out_total", "Healthy wide events dropped by tail-biased sampling (-events-sample).")
	obs.Default.Help("drevald_events_sink_dropped_total", "Wide-event JSONL lines dropped because the -events-out queue was full.")
}
