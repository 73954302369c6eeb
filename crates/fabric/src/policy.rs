//! Endorsement policies: which organisations must endorse a transaction.
//!
//! Mirrors Fabric's signature-policy language (`AND`, `OR`, `OutOf` over
//! MSP principals). The committing peer evaluates the policy against the
//! set of organisations whose endorsements verified.

use std::fmt;

use crate::identity::MspId;

/// A boolean combination of organisation principals.
///
/// # Examples
///
/// ```
/// use hyperprov_fabric::{EndorsementPolicy, MspId};
///
/// let org1 = MspId::new("org1");
/// let org2 = MspId::new("org2");
/// let policy = EndorsementPolicy::or(vec![
///     EndorsementPolicy::signed_by(org1.clone()),
///     EndorsementPolicy::signed_by(org2.clone()),
/// ]);
/// assert!(policy.is_satisfied_by([org1].iter()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorsementPolicy {
    /// Satisfied if the given organisation endorsed.
    SignedBy(MspId),
    /// Satisfied if all sub-policies are satisfied.
    And(Vec<EndorsementPolicy>),
    /// Satisfied if at least one sub-policy is satisfied.
    Or(Vec<EndorsementPolicy>),
    /// Satisfied if at least `n` sub-policies are satisfied.
    OutOf(usize, Vec<EndorsementPolicy>),
}

impl EndorsementPolicy {
    /// `SignedBy` leaf.
    pub fn signed_by(org: MspId) -> Self {
        EndorsementPolicy::SignedBy(org)
    }

    /// Conjunction of sub-policies.
    pub fn and(policies: Vec<EndorsementPolicy>) -> Self {
        EndorsementPolicy::And(policies)
    }

    /// Disjunction of sub-policies.
    pub fn or(policies: Vec<EndorsementPolicy>) -> Self {
        EndorsementPolicy::Or(policies)
    }

    /// Threshold over sub-policies.
    pub fn out_of(n: usize, policies: Vec<EndorsementPolicy>) -> Self {
        EndorsementPolicy::OutOf(n, policies)
    }

    /// Any single one of the given organisations.
    pub fn any_of(orgs: impl IntoIterator<Item = MspId>) -> Self {
        EndorsementPolicy::Or(orgs.into_iter().map(EndorsementPolicy::SignedBy).collect())
    }

    /// All of the given organisations.
    pub fn all_of(orgs: impl IntoIterator<Item = MspId>) -> Self {
        EndorsementPolicy::And(orgs.into_iter().map(EndorsementPolicy::SignedBy).collect())
    }

    /// A strict majority (`floor(n/2) + 1`) of the given organisations.
    pub fn majority_of(orgs: impl IntoIterator<Item = MspId>) -> Self {
        let leaves: Vec<EndorsementPolicy> =
            orgs.into_iter().map(EndorsementPolicy::SignedBy).collect();
        let n = leaves.len() / 2 + 1;
        EndorsementPolicy::OutOf(n, leaves)
    }

    /// Evaluates the policy against the set of endorsing organisations
    /// (a handful: searched as a list, and a caller's `Vec` is taken as
    /// it is).
    pub fn is_satisfied_by<'a>(&self, endorsers: impl IntoIterator<Item = &'a MspId>) -> bool {
        let set: Vec<&MspId> = endorsers.into_iter().collect();
        self.eval(&set)
    }

    fn eval(&self, set: &[&MspId]) -> bool {
        match self {
            EndorsementPolicy::SignedBy(org) => set.contains(&org),
            EndorsementPolicy::And(subs) => subs.iter().all(|p| p.eval(set)),
            EndorsementPolicy::Or(subs) => {
                // An empty Or is unsatisfiable, like Fabric's empty NOutOf.
                subs.iter().any(|p| p.eval(set))
            }
            EndorsementPolicy::OutOf(n, subs) => subs.iter().filter(|p| p.eval(set)).count() >= *n,
        }
    }

    /// The smallest number of distinct organisations that could satisfy
    /// the policy — used by the gateway to decide how many endorsements to
    /// collect before submitting.
    pub fn min_endorsers(&self) -> usize {
        match self {
            EndorsementPolicy::SignedBy(_) => 1,
            EndorsementPolicy::And(subs) => {
                // Upper bound: sum of children (orgs may overlap, but the
                // gateway only uses this as a collection target).
                subs.iter().map(EndorsementPolicy::min_endorsers).sum()
            }
            EndorsementPolicy::Or(subs) => subs
                .iter()
                .map(EndorsementPolicy::min_endorsers)
                .min()
                .unwrap_or(usize::MAX),
            EndorsementPolicy::OutOf(n, subs) => {
                let mut costs: Vec<usize> =
                    subs.iter().map(EndorsementPolicy::min_endorsers).collect();
                costs.sort_unstable();
                costs.iter().take(*n).sum::<usize>().max(*n)
            }
        }
    }
}

impl fmt::Display for EndorsementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorsementPolicy::SignedBy(org) => write!(f, "SignedBy({org})"),
            EndorsementPolicy::And(subs) => {
                write!(f, "And(")?;
                for (i, p) in subs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            EndorsementPolicy::Or(subs) => {
                write!(f, "Or(")?;
                for (i, p) in subs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            EndorsementPolicy::OutOf(n, subs) => {
                write!(f, "OutOf({n}; ")?;
                for (i, p) in subs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(n: u32) -> MspId {
        MspId::new(format!("org{n}"))
    }

    #[test]
    fn signed_by_leaf() {
        let p = EndorsementPolicy::signed_by(org(1));
        assert!(p.is_satisfied_by([org(1)].iter()));
        assert!(!p.is_satisfied_by([org(2)].iter()));
        assert!(!p.is_satisfied_by([].iter()));
        assert_eq!(p.min_endorsers(), 1);
    }

    #[test]
    fn and_requires_all() {
        let p = EndorsementPolicy::all_of([org(1), org(2)]);
        assert!(p.is_satisfied_by([org(1), org(2)].iter()));
        assert!(!p.is_satisfied_by([org(1)].iter()));
        assert_eq!(p.min_endorsers(), 2);
    }

    #[test]
    fn or_requires_any() {
        let p = EndorsementPolicy::any_of([org(1), org(2)]);
        assert!(p.is_satisfied_by([org(2)].iter()));
        assert!(!p.is_satisfied_by([org(3)].iter()));
        assert_eq!(p.min_endorsers(), 1);
    }

    #[test]
    fn empty_and_is_trivially_true_empty_or_false() {
        let and = EndorsementPolicy::and(vec![]);
        let or = EndorsementPolicy::or(vec![]);
        assert!(and.is_satisfied_by([].iter()));
        assert!(!or.is_satisfied_by([org(1)].iter()));
    }

    #[test]
    fn out_of_threshold() {
        let p = EndorsementPolicy::out_of(
            2,
            vec![
                EndorsementPolicy::signed_by(org(1)),
                EndorsementPolicy::signed_by(org(2)),
                EndorsementPolicy::signed_by(org(3)),
            ],
        );
        assert!(p.is_satisfied_by([org(1), org(3)].iter()));
        assert!(!p.is_satisfied_by([org(2)].iter()));
        assert_eq!(p.min_endorsers(), 2);
    }

    #[test]
    fn majority_of_four_needs_three() {
        let p = EndorsementPolicy::majority_of([org(1), org(2), org(3), org(4)]);
        assert!(p.is_satisfied_by([org(1), org(2), org(3)].iter()));
        assert!(!p.is_satisfied_by([org(1), org(2)].iter()));
        assert_eq!(p.min_endorsers(), 3);
    }

    #[test]
    fn nested_policies() {
        // (org1 AND org2) OR org3
        let p = EndorsementPolicy::or(vec![
            EndorsementPolicy::all_of([org(1), org(2)]),
            EndorsementPolicy::signed_by(org(3)),
        ]);
        assert!(p.is_satisfied_by([org(3)].iter()));
        assert!(p.is_satisfied_by([org(1), org(2)].iter()));
        assert!(!p.is_satisfied_by([org(1)].iter()));
        assert_eq!(p.min_endorsers(), 1);
    }

    #[test]
    fn duplicate_endorsers_count_once() {
        let p = EndorsementPolicy::all_of([org(1), org(2)]);
        let endorsers = [org(1), org(1)];
        assert!(!p.is_satisfied_by(endorsers.iter()));
    }

    #[test]
    fn display_renders() {
        let p = EndorsementPolicy::out_of(
            1,
            vec![
                EndorsementPolicy::signed_by(org(1)),
                EndorsementPolicy::and(vec![EndorsementPolicy::signed_by(org(2))]),
            ],
        );
        let s = p.to_string();
        assert!(s.contains("OutOf(1"));
        assert!(s.contains("SignedBy(org1)"));
    }
}
