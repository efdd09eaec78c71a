// Package core implements trace-driven (off-policy) evaluation of
// networking policies, the primary contribution of "Biases in Data-Driven
// Networking, and What to Do About Them" (HotNets 2017).
//
// The central objects are:
//
//   - Record / Trace: logged tuples (context, decision, reward,
//     propensity) collected while an old policy µ_old was running.
//   - TraceView: the columnar, interned form of a Trace that every
//     estimator reads (NewTraceViewCtx, NewTraceViewKeyedCtx, or the
//     appendable ViewBuilder for streamed records).
//   - Policy: a stochastic mapping from client contexts to decisions.
//   - RewardModel: a model r̂(c, d) predicting the reward of any
//     decision for any context (the ingredient of the Direct Method).
//   - Estimators: DirectMethodViewCtx (DM), IPSViewCtx (inverse
//     propensity scoring, with optional clipping and
//     self-normalization), and DoublyRobustViewCtx (DR), which combines
//     DM and IPS and is accurate whenever at least one of the two
//     ingredients is accurate ("second-order bias"); plus SwitchDR,
//     exact-match and cross-fitted DR variants and DiagnoseViewCtx's
//     overlap diagnostics (§4.1).
//   - ReplayDRCtx: the paper's §4.2 extension of DR to non-stationary
//     (history-dependent) target policies via rejection-sampling replay.
//
// Estimators are generic over the context type C and the (comparable)
// decision type D, so the same machinery evaluates video bitrate
// policies, CDN configurations, relay selections, and server choices.
//
// All estimators return an Estimate carrying the point value, a plug-in
// standard error, and importance-weight diagnostics; seeded bootstrap
// confidence intervals are available via Bootstrap, and StreamEval
// answers the same questions in O(1) as records stream in.
package core
