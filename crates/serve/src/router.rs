//! Admission control and request routing.
//!
//! The front door sees every arrival before it touches a board. Routing
//! picks a target queue under one of two policies:
//!
//! * **Round-robin** — the classical baseline: rotate over boards that
//!   have queue space, blind to their operating points.
//! * **Vmin-aware** — score each candidate by its modeled energy per
//!   inference, inflated by queue pressure and by how many mitigation
//!   rungs the governor has walked the board away from its calibrated
//!   point. Deep-undervolted healthy boards win; boards that have been
//!   backed off (their cheap operating point revoked) or are piling up
//!   work are routed around.
//!
//! Admission is load-shedding with a degraded middle band: below the
//! watermark requests get the full service guarantee, between watermark
//! and full they are admitted **degraded** (served, but not retried on a
//! flagged SDC), and when every queue is full they are **shed**.

/// Queue-fill fraction at and above which admits are degraded.
const DEGRADE_WATERMARK: f64 = 0.75;

/// Routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Energy-per-inference scoring against governor state.
    VminAware,
    /// Rotating baseline.
    RoundRobin,
}

impl RouterPolicy {
    /// Parses a CLI name (`vmin` / `rr`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "vmin" | "vmin-aware" => Some(RouterPolicy::VminAware),
            "rr" | "round-robin" => Some(RouterPolicy::RoundRobin),
            _ => None,
        }
    }

    /// The canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::VminAware => "vmin",
            RouterPolicy::RoundRobin => "rr",
        }
    }
}

/// What the router can see of one board when it decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardView {
    /// Requests currently queued.
    pub queue_len: usize,
    /// Queue bound.
    pub queue_depth: usize,
    /// Whether the board is up (false while rebooting after a hang).
    pub available: bool,
    /// Modeled energy per inference at the current operating point, J.
    pub energy_per_inf_j: f64,
    /// Mitigation rungs walked away from the calibrated point.
    pub rungs: u32,
}

impl BoardView {
    fn has_space(&self) -> bool {
        self.available && self.queue_len < self.queue_depth
    }
}

/// An admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue on `board`; `degraded` requests forfeit SDC retries.
    Accept {
        /// Target board index.
        board: usize,
        /// Admitted above the degrade watermark.
        degraded: bool,
    },
    /// Every queue is full (or every board is down): drop the request.
    Shed,
}

/// Deterministic router (the round-robin cursor is its only state).
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    rr_cursor: usize,
}

impl Router {
    /// A router under `policy`.
    pub fn new(policy: RouterPolicy) -> Self {
        Router {
            policy,
            rr_cursor: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Vmin-aware score: modeled energy per inference inflated by queue
    /// pressure and mitigation state. Lower is better. Public so the
    /// tracing layer can attach the winning score to route decisions.
    pub fn score_of(view: &BoardView) -> f64 {
        view.energy_per_inf_j
            * (1.0 + 0.3 * view.queue_len as f64)
            * (1.0 + 0.5 * f64::from(view.rungs))
    }

    /// Picks a queue for one request, skipping `exclude` (used when
    /// retrying a flagged batch: the retry must land on a different
    /// board). Returns `None` when no candidate has space.
    pub fn route(&mut self, views: &[BoardView], exclude: Option<usize>) -> Option<usize> {
        let candidate = |i: usize| views[i].has_space() && Some(i) != exclude;
        match self.policy {
            RouterPolicy::VminAware => {
                (0..views.len()).filter(|&i| candidate(i)).min_by(|&a, &b| {
                    Self::score_of(&views[a])
                        .partial_cmp(&Self::score_of(&views[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
            }
            RouterPolicy::RoundRobin => {
                let n = views.len();
                for step in 0..n {
                    let i = (self.rr_cursor + step) % n;
                    if candidate(i) {
                        self.rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
        }
    }

    /// Runs admission control for one arrival: a request routed to a
    /// queue filled to the degrade watermark or past it is admitted
    /// degraded.
    pub fn admit(&mut self, views: &[BoardView]) -> Admission {
        match self.route(views, None) {
            Some(board) => {
                let v = &views[board];
                let degraded = (v.queue_len as f64) >= DEGRADE_WATERMARK * v.queue_depth as f64;
                Admission::Accept { board, degraded }
            }
            None => Admission::Shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(queue_len: usize, energy: f64, rungs: u32) -> BoardView {
        BoardView {
            queue_len,
            queue_depth: 8,
            available: true,
            energy_per_inf_j: energy,
            rungs,
        }
    }

    #[test]
    fn vmin_aware_prefers_the_cheapest_healthy_board() {
        let mut r = Router::new(RouterPolicy::VminAware);
        let views = [view(0, 3e-3, 0), view(0, 1e-3, 0), view(0, 2e-3, 0)];
        assert_eq!(r.route(&views, None), Some(1));
        // The same cheap board, walked three mitigation rungs, loses out.
        let views = [view(0, 3e-3, 0), view(0, 1e-3, 3), view(0, 2e-3, 0)];
        assert_eq!(r.route(&views, None), Some(2));
        // Queue pressure steers away from a backed-up cheap board.
        let views = [view(0, 1.2e-3, 0), view(7, 1e-3, 0)];
        assert_eq!(r.route(&views, None), Some(0));
    }

    #[test]
    fn round_robin_rotates_and_skips_full_queues() {
        let mut r = Router::new(RouterPolicy::RoundRobin);
        let mut views = [view(0, 1e-3, 0), view(0, 1e-3, 0), view(0, 1e-3, 0)];
        assert_eq!(r.route(&views, None), Some(0));
        assert_eq!(r.route(&views, None), Some(1));
        views[2].queue_len = 8; // full
        assert_eq!(r.route(&views, None), Some(0));
        assert_eq!(r.route(&views, None), Some(1));
    }

    #[test]
    fn retries_exclude_the_source_board() {
        let mut r = Router::new(RouterPolicy::VminAware);
        let views = [view(0, 1e-3, 0), view(0, 5e-3, 0)];
        assert_eq!(r.route(&views, Some(0)), Some(1));
        assert_eq!(r.route(&[view(0, 1e-3, 0)], Some(0)), None);
    }

    #[test]
    fn admission_degrades_above_the_watermark_and_sheds_when_full() {
        let mut r = Router::new(RouterPolicy::VminAware);
        assert_eq!(
            r.admit(&[view(5, 1e-3, 0)]),
            Admission::Accept {
                board: 0,
                degraded: false
            }
        );
        assert_eq!(
            r.admit(&[view(6, 1e-3, 0)]),
            Admission::Accept {
                board: 0,
                degraded: true
            }
        );
        let mut full = view(8, 1e-3, 0);
        assert_eq!(r.admit(&[full]), Admission::Shed);
        full.queue_len = 0;
        full.available = false;
        assert_eq!(r.admit(&[full]), Admission::Shed);
    }
}
