//! Declarative alert rules with hysteresis and for-duration windows.
//!
//! A rule names a metric family (and optionally a tracked quantile for
//! summaries), a comparison, and a threshold:
//!
//! ```text
//! headroom: vmtherm_monitor_temp_headroom_c < 3 for 5
//! pred_err: vmtherm_monitor_pred_abs_err_c.p95 > 2.0 for 3
//! quarantine: vmtherm_monitor_stuck_suspected_total > 0
//! ```
//!
//! Rules are evaluated once per sim-time tick against a [`Registry`]
//! snapshot (see [`Registry::family_values`]), per labelled instance of the
//! family. An instance **fires** after `for N` consecutive breaching ticks
//! and **clears** after the same number of consecutive ticks on the safe
//! side of the clear threshold (`clear V`, defaulting to the firing
//! threshold) — the two-threshold hysteresis keeps a value oscillating
//! around the limit from flapping. Evaluation is pure sim-time state
//! machinery: no wall clock, no RNG, so identical runs produce identical
//! alert sequences.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::registry::Registry;

/// Comparison direction of a rule: alert when the value is below (`Lt`) or
/// above (`Gt`) the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when `value < threshold` (e.g. thermal headroom too small).
    Lt,
    /// Breach when `value > threshold` (e.g. error quantile too large).
    Gt,
}

impl Cmp {
    fn breaches(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Lt => value < threshold,
            Cmp::Gt => value > threshold,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Gt => ">",
        }
    }
}

/// One declarative threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Short rule name used in metrics labels and dump filenames.
    pub name: String,
    /// Metric family base name the rule reads (e.g.
    /// `vmtherm_monitor_temp_headroom_c`).
    pub metric: String,
    /// Quantile to read for summary families (`.p95` → 0.95);
    /// counters and gauges ignore it.
    pub quantile: Option<f64>,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Firing threshold.
    pub threshold: f64,
    /// Consecutive breaching ticks required to fire (≥ 1); the same count
    /// of consecutive safe ticks is required to clear.
    pub for_ticks: u32,
    /// Hysteresis clear threshold; an instance only starts clearing once
    /// its value stops breaching this (defaults to `threshold`).
    pub clear_threshold: f64,
}

impl AlertRule {
    /// Human-readable rule text, e.g. `headroom: m < 3 for 5 clear 4`.
    #[must_use]
    pub fn render(&self) -> String {
        let stat = self
            .quantile
            .map(|q| format!(".p{}", (q * 100.0).round() as u32))
            .unwrap_or_default();
        let mut out = format!(
            "{}: {}{stat} {} {} for {}",
            self.name,
            self.metric,
            self.cmp.symbol(),
            self.threshold,
            self.for_ticks
        );
        if self.clear_threshold != self.threshold {
            out.push_str(&format!(" clear {}", self.clear_threshold));
        }
        out
    }
}

/// One firing or clearing transition produced by [`AlertEngine::eval`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Rule name.
    pub rule: String,
    /// Full registry key of the breaching instance (labels included).
    pub instance: String,
    /// Value observed at the transition tick.
    pub value: f64,
    /// Firing threshold of the rule.
    pub threshold: f64,
    /// `true` on fire, `false` on clear.
    pub fired: bool,
    /// Sim time of the transition.
    pub t_secs: f64,
    /// Path of the flight-recorder dump written for this firing, when the
    /// recorder is armed (filled in by [`crate::eval_alerts`]).
    pub dump: Option<String>,
}

#[derive(Debug, Default, Clone)]
struct InstanceState {
    breach_ticks: u32,
    safe_ticks: u32,
    firing: bool,
    last_value: f64,
}

/// Evaluates a set of [`AlertRule`]s against a registry, tracking per
/// (rule, instance) hysteresis state across ticks.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: BTreeMap<(usize, String), InstanceState>,
}

impl AlertEngine {
    /// Builds an engine over the given rules.
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            rules,
            state: BTreeMap::new(),
        }
    }

    /// The rules under evaluation.
    #[must_use]
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Number of (rule, instance) pairs currently firing.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.state.values().filter(|s| s.firing).count()
    }

    /// True when any instance of the named rule is firing.
    #[must_use]
    pub fn rule_active(&self, name: &str) -> bool {
        self.rules.iter().enumerate().any(|(i, r)| {
            r.name == name && self.state.iter().any(|((ri, _), s)| *ri == i && s.firing)
        })
    }

    /// Runs one evaluation tick against `registry` at sim time `t_secs`,
    /// returning every fire/clear transition that happened on this tick.
    pub fn eval(&mut self, registry: &Registry, t_secs: f64) -> Vec<AlertEvent> {
        let mut transitions = Vec::new();
        for (idx, rule) in self.rules.iter().enumerate() {
            for (instance, value) in registry.family_values(&rule.metric, rule.quantile) {
                let state = self.state.entry((idx, instance.clone())).or_default();
                state.last_value = value;
                if state.firing {
                    // Hysteresis: only consecutive ticks on the safe side of
                    // the clear threshold count towards clearing.
                    if rule.cmp.breaches(value, rule.clear_threshold) {
                        state.safe_ticks = 0;
                    } else {
                        state.safe_ticks += 1;
                        if state.safe_ticks >= rule.for_ticks {
                            state.firing = false;
                            state.safe_ticks = 0;
                            state.breach_ticks = 0;
                            transitions.push(AlertEvent {
                                rule: rule.name.clone(),
                                instance,
                                value,
                                threshold: rule.threshold,
                                fired: false,
                                t_secs,
                                dump: None,
                            });
                        }
                    }
                } else if rule.cmp.breaches(value, rule.threshold) {
                    state.breach_ticks += 1;
                    if state.breach_ticks >= rule.for_ticks {
                        state.firing = true;
                        state.breach_ticks = 0;
                        state.safe_ticks = 0;
                        transitions.push(AlertEvent {
                            rule: rule.name.clone(),
                            instance,
                            value,
                            threshold: rule.threshold,
                            fired: true,
                            t_secs,
                            dump: None,
                        });
                    }
                } else {
                    state.breach_ticks = 0;
                }
            }
        }
        transitions
    }

    /// JSON view of the engine for the `/alerts` endpoint: the rule list
    /// plus every currently-firing instance with its last observed value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rules = self.rules.iter().map(|r| Json::Str(r.render())).collect();
        let active = self
            .state
            .iter()
            .filter(|(_, s)| s.firing)
            .filter_map(|((idx, instance), s)| {
                let rule = self.rules.get(*idx)?;
                Some(Json::obj(vec![
                    ("rule", Json::str(&rule.name)),
                    ("instance", Json::str(instance)),
                    ("value", Json::Num(s.last_value)),
                    ("threshold", Json::Num(rule.threshold)),
                ]))
            })
            .collect();
        Json::obj(vec![
            ("rules", Json::Arr(rules)),
            ("active", Json::Arr(active)),
        ])
    }
}

/// The default fleet-health rules wired up by `--alerts default` and
/// `vmtherm obs-serve`.
#[must_use]
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "temp_headroom".to_string(),
            metric: crate::names::METRIC_MONITOR_TEMP_HEADROOM.to_string(),
            quantile: None,
            cmp: Cmp::Lt,
            threshold: 3.0,
            for_ticks: 5,
            clear_threshold: 5.0,
        },
        AlertRule {
            name: "pred_err_p95".to_string(),
            metric: crate::names::METRIC_MONITOR_PRED_ABS_ERR.to_string(),
            quantile: Some(0.95),
            cmp: Cmp::Gt,
            threshold: 2.0,
            for_ticks: 3,
            clear_threshold: 2.0,
        },
        AlertRule {
            name: "sensor_quarantined".to_string(),
            metric: crate::names::METRIC_MONITOR_STUCK_SUSPECTED.to_string(),
            quantile: None,
            cmp: Cmp::Gt,
            threshold: 0.0,
            for_ticks: 1,
            clear_threshold: 0.0,
        },
    ]
}

/// Parses a semicolon-separated rule list in the syntax
/// `[name:] metric[.pNN] <|> THRESHOLD [for N] [clear V]`. The literal
/// spec `default` yields [`default_rules`].
pub fn parse_rules(spec: &str) -> Result<Vec<AlertRule>, String> {
    if spec.trim() == "default" {
        return Ok(default_rules());
    }
    let mut rules = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        rules.push(parse_rule(part)?);
    }
    if rules.is_empty() {
        return Err("no alert rules in spec".to_string());
    }
    Ok(rules)
}

fn parse_rule(text: &str) -> Result<AlertRule, String> {
    let mut tokens = text.split_whitespace().peekable();
    let mut name = None;
    let Some(first) = tokens.next() else {
        return Err("empty rule".to_string());
    };
    let metric_token = if let Some(stripped) = first.strip_suffix(':') {
        name = Some(stripped.to_string());
        tokens
            .next()
            .ok_or_else(|| format!("rule `{text}`: missing metric after name"))?
    } else {
        first
    };
    let (metric, quantile) = split_quantile(metric_token)?;
    let cmp = match tokens.next() {
        Some("<") => Cmp::Lt,
        Some(">") => Cmp::Gt,
        other => return Err(format!("rule `{text}`: expected `<` or `>`, got {other:?}")),
    };
    let threshold = parse_num(tokens.next(), text, "threshold")?;
    let mut for_ticks = 1u32;
    let mut clear_threshold = threshold;
    while let Some(word) = tokens.next() {
        match word {
            "for" => {
                let n = parse_num(tokens.next(), text, "for-duration")?;
                if n < 1.0 || n.fract() != 0.0 {
                    return Err(format!("rule `{text}`: `for` wants a positive integer"));
                }
                for_ticks = n as u32;
            }
            "clear" => clear_threshold = parse_num(tokens.next(), text, "clear threshold")?,
            other => return Err(format!("rule `{text}`: unexpected token `{other}`")),
        }
    }
    Ok(AlertRule {
        name: name.unwrap_or_else(|| metric_token.to_string()),
        metric,
        quantile,
        cmp,
        threshold,
        for_ticks,
        clear_threshold,
    })
}

/// Splits `metric.p95` into `("metric", Some(0.95))`; no suffix → `None`.
fn split_quantile(token: &str) -> Result<(String, Option<f64>), String> {
    if let Some((base, stat)) = token.rsplit_once('.') {
        if let Some(pct) = stat.strip_prefix('p') {
            let pct: u32 = pct
                .parse()
                .map_err(|_| format!("bad quantile suffix `.{stat}` on `{token}`"))?;
            if pct == 0 || pct >= 100 {
                return Err(format!("quantile `.{stat}` out of range on `{token}`"));
            }
            return Ok((base.to_string(), Some(f64::from(pct) / 100.0)));
        }
    }
    Ok((token.to_string(), None))
}

fn parse_num(token: Option<&str>, rule: &str, what: &str) -> Result<f64, String> {
    let token = token.ok_or_else(|| format!("rule `{rule}`: missing {what}"))?;
    token
        .parse::<f64>()
        .map_err(|_| format!("rule `{rule}`: bad {what} `{token}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt_rule(metric: &str, threshold: f64, for_ticks: u32) -> AlertRule {
        AlertRule {
            name: format!("{metric}_high"),
            metric: metric.to_string(),
            quantile: None,
            cmp: Cmp::Gt,
            threshold,
            for_ticks,
            clear_threshold: threshold,
        }
    }

    #[test]
    fn fires_after_for_duration_and_clears_with_hysteresis() {
        let reg = Registry::new();
        let g = reg.gauge("load");
        let mut rule = gt_rule("load", 10.0, 3);
        rule.clear_threshold = 8.0;
        let mut engine = AlertEngine::new(vec![rule]);

        // Two breaching ticks: armed but not yet firing.
        g.set(12.0);
        assert!(engine.eval(&reg, 1.0).is_empty());
        assert!(engine.eval(&reg, 2.0).is_empty());
        // A safe tick resets the window.
        g.set(5.0);
        assert!(engine.eval(&reg, 3.0).is_empty());
        // Three consecutive breaches fire exactly once.
        g.set(12.0);
        assert!(engine.eval(&reg, 4.0).is_empty());
        assert!(engine.eval(&reg, 5.0).is_empty());
        let fired = engine.eval(&reg, 6.0);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert_eq!(fired[0].instance, "load");
        assert_eq!(engine.active_count(), 1);
        assert!(engine.rule_active("load_high"));
        // Still firing: no duplicate transition.
        assert!(engine.eval(&reg, 7.0).is_empty());

        // Dropping below the fire threshold but above the clear threshold
        // must NOT clear (hysteresis band).
        g.set(9.0);
        for t in 8..20 {
            assert!(engine.eval(&reg, t as f64).is_empty());
        }
        assert_eq!(engine.active_count(), 1);
        // Below the clear threshold for `for_ticks` ticks clears once.
        g.set(7.0);
        assert!(engine.eval(&reg, 20.0).is_empty());
        assert!(engine.eval(&reg, 21.0).is_empty());
        let cleared = engine.eval(&reg, 22.0);
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].fired);
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    fn instances_track_independently() {
        let reg = Registry::new();
        reg.gauge("hr{server=\"0\"}").set(10.0);
        reg.gauge("hr{server=\"1\"}").set(1.0);
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "headroom".to_string(),
            metric: "hr".to_string(),
            quantile: None,
            cmp: Cmp::Lt,
            threshold: 3.0,
            for_ticks: 2,
            clear_threshold: 3.0,
        }]);
        assert!(engine.eval(&reg, 1.0).is_empty());
        let fired = engine.eval(&reg, 2.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].instance, "hr{server=\"1\"}");
        assert_eq!(engine.active_count(), 1);
        let json = engine.to_json().render();
        assert!(json.contains("hr{server=\\\"1\\\"}"), "{json}");
    }

    #[test]
    fn summary_rules_read_the_requested_quantile() {
        let reg = Registry::new();
        let s = reg.summary("err");
        for i in 1..=100 {
            s.observe(f64::from(i) / 10.0);
        }
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "err_p95".to_string(),
            metric: "err".to_string(),
            quantile: Some(0.95),
            cmp: Cmp::Gt,
            threshold: 5.0,
            for_ticks: 1,
            clear_threshold: 5.0,
        }]);
        let fired = engine.eval(&reg, 1.0);
        assert_eq!(fired.len(), 1, "p95 ≈ 9.5 should breach > 5");
        assert!(fired[0].value > 5.0);
    }

    #[test]
    fn parses_full_syntax() {
        let rules = parse_rules(
            "headroom: vmtherm_monitor_temp_headroom_c < 3 for 5 clear 5; \
             vmtherm_monitor_pred_abs_err_c.p95 > 2.0 for 3",
        )
        .expect("valid spec");
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "headroom");
        assert_eq!(rules[0].cmp, Cmp::Lt);
        assert_eq!(rules[0].for_ticks, 5);
        assert_eq!(rules[0].clear_threshold, 5.0);
        assert_eq!(rules[1].name, "vmtherm_monitor_pred_abs_err_c.p95");
        assert_eq!(rules[1].quantile, Some(0.95));
        assert_eq!(rules[1].for_ticks, 3);
        assert_eq!(rules[1].clear_threshold, 2.0);
        assert_eq!(
            rules[0].render(),
            "headroom: vmtherm_monitor_temp_headroom_c < 3 for 5 clear 5"
        );
    }

    #[test]
    fn default_spec_and_errors() {
        assert_eq!(parse_rules("default").expect("default"), default_rules());
        assert!(parse_rules("").is_err());
        assert!(parse_rules("m ! 3").is_err());
        assert!(parse_rules("m < x").is_err());
        assert!(parse_rules("m < 3 for 0").is_err());
        assert!(parse_rules("m < 3 wat 5").is_err());
        assert!(parse_rules("m.p200 > 1").is_err());
    }
}
