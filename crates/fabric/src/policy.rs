//! The endorsement policy: Fabric's `OR` over MSP principals, the one
//! policy a HyperProv channel runs. A client collects one endorsement, so
//! any one of the listed organisations satisfies it; the committing peer
//! asks it about the organisations whose endorsements verified.

use crate::identity::MspId;

/// Satisfied by an endorsement of any one of its organisations.
///
/// # Examples
///
/// ```
/// use hyperprov_fabric::{EndorsementPolicy, MspId};
///
/// let org1 = MspId::new("org1");
/// let org2 = MspId::new("org2");
/// let policy = EndorsementPolicy::any_of([org1.clone(), org2]);
/// assert!(policy.is_satisfied_by([org1].iter()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndorsementPolicy {
    orgs: Vec<MspId>,
}

impl EndorsementPolicy {
    /// Any single one of the given organisations; an empty list is
    /// unsatisfiable, like Fabric's empty `OR`.
    pub fn any_of(orgs: impl IntoIterator<Item = MspId>) -> Self {
        EndorsementPolicy {
            orgs: orgs.into_iter().collect(),
        }
    }

    /// Whether any of the endorsing organisations is one of the policy's.
    pub fn is_satisfied_by<'a>(&self, endorsers: impl IntoIterator<Item = &'a MspId>) -> bool {
        endorsers.into_iter().any(|org| self.orgs.contains(org))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(n: u32) -> MspId {
        MspId::new(format!("org{n}"))
    }

    #[test]
    fn any_listed_org_satisfies_and_nothing_else_does() {
        let p = EndorsementPolicy::any_of([org(1), org(2)]);
        assert!(p.is_satisfied_by([org(1)].iter()));
        assert!(p.is_satisfied_by([org(2)].iter()));
        assert!(p.is_satisfied_by([org(3), org(2)].iter()));
        assert!(!p.is_satisfied_by([org(3)].iter()));
        assert!(!p.is_satisfied_by([].iter()));
        assert!(!EndorsementPolicy::any_of([]).is_satisfied_by([org(1)].iter()));
    }
}
