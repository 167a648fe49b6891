//! Job groups and grouping decisions.
//!
//! A *job group* is a set of co-located jobs plus the machines allocated
//! to them (§IV-B). The scheduler's output is a [`Grouping`]: a
//! partition of the scheduled jobs into groups and an assignment of
//! machine counts (and, once placed, concrete machine IDs) to each group.

use std::collections::BTreeSet;
use std::fmt;

use crate::cluster::MachineId;
use crate::job::JobId;

/// Unique identifier of a job group within one grouping decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(u32);

impl GroupId {
    /// Wraps a raw group number.
    pub fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw group number.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// One group of co-located jobs and its machine allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobGroup {
    id: GroupId,
    jobs: Vec<JobId>,
    machines: Vec<MachineId>,
}

impl JobGroup {
    /// Creates a group from its jobs and concrete machines.
    pub fn new(id: GroupId, jobs: Vec<JobId>, machines: Vec<MachineId>) -> Self {
        Self { id, jobs, machines }
    }

    /// The group's identifier.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// Jobs co-located in this group.
    pub fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// Machines allocated to this group.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// The group DoP `m_g` — the number of allocated machines.
    pub fn dop(&self) -> u32 {
        self.machines.len() as u32
    }

    /// Whether `job` belongs to this group.
    pub fn contains(&self, job: JobId) -> bool {
        self.jobs.contains(&job)
    }

    /// Adds a job at the end of the group's job list.
    pub fn push_job(&mut self, job: JobId) {
        debug_assert!(!self.contains(job), "job {job} already in group");
        self.jobs.push(job);
    }
}

/// A complete grouping decision: the set of job groups.
///
/// Invariants (checked by [`Grouping::validate`]):
/// - every job appears in at most one group;
/// - every machine is allocated to at most one group;
/// - every non-empty group has at least one machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Grouping {
    groups: Vec<JobGroup>,
}

impl Grouping {
    /// Creates an empty grouping (no jobs scheduled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a grouping from pre-built groups.
    pub fn from_groups(groups: Vec<JobGroup>) -> Self {
        Self { groups }
    }

    /// The job groups.
    pub fn groups(&self) -> &[JobGroup] {
        &self.groups
    }

    /// Appends a group.
    pub fn push(&mut self, group: JobGroup) {
        self.groups.push(group);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total machines allocated across all groups.
    pub fn total_machines(&self) -> usize {
        self.groups.iter().map(|g| g.machines().len()).sum()
    }

    /// Total jobs across all groups.
    pub fn total_jobs(&self) -> usize {
        self.groups.iter().map(|g| g.jobs().len()).sum()
    }

    /// Iterates all scheduled jobs.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.groups.iter().flat_map(|g| g.jobs().iter().copied())
    }

    /// Finds the group containing `job`.
    pub fn group_of(&self, job: JobId) -> Option<&JobGroup> {
        self.groups.iter().find(|g| g.contains(job))
    }

    /// Finds a group by ID.
    pub fn group(&self, id: GroupId) -> Option<&JobGroup> {
        self.groups.iter().find(|g| g.id() == id)
    }

    /// Drops groups that have become empty of jobs, freeing machines.
    pub fn prune_empty(&mut self) {
        self.groups.retain(|g| !g.jobs().is_empty());
    }

    /// Checks the partition invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut seen_jobs = BTreeSet::new();
        let mut seen_machines = BTreeSet::new();
        for g in &self.groups {
            if !g.jobs().is_empty() && g.machines().is_empty() {
                return Err(format!("group {} has jobs but no machines", g.id()));
            }
            for &j in g.jobs() {
                if !seen_jobs.insert(j) {
                    return Err(format!("job {j} appears in more than one group"));
                }
            }
            for &m in g.machines() {
                if !seen_machines.insert(m) {
                    return Err(format!("machine {m} allocated to more than one group"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Grouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.groups {
            write!(f, "{}[", g.id())?;
            for (i, j) in g.jobs().iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{j}")?;
            }
            writeln!(f, "] x{} machines", g.dop())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, jobs: &[u64], machines: &[u32]) -> JobGroup {
        JobGroup::new(
            GroupId::new(id),
            jobs.iter().map(|&j| JobId::new(j)).collect(),
            machines.iter().map(|&m| MachineId::new(m)).collect(),
        )
    }

    #[test]
    fn grouping_accounting() {
        let g = Grouping::from_groups(vec![mk(0, &[0, 1], &[0, 1, 2]), mk(1, &[2], &[3])]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_machines(), 4);
        assert_eq!(g.total_jobs(), 3);
        assert_eq!(g.group_of(JobId::new(2)).unwrap().id(), GroupId::new(1));
        assert!(g.group_of(JobId::new(9)).is_none());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_catches_duplicate_job() {
        let g = Grouping::from_groups(vec![mk(0, &[0], &[0]), mk(1, &[0], &[1])]);
        assert!(g.validate().unwrap_err().contains("more than one group"));
    }

    #[test]
    fn validate_catches_duplicate_machine() {
        let g = Grouping::from_groups(vec![mk(0, &[0], &[0]), mk(1, &[1], &[0])]);
        assert!(g.validate().unwrap_err().contains("machine"));
    }

    #[test]
    fn validate_catches_machineless_group() {
        let g = Grouping::from_groups(vec![mk(0, &[0], &[])]);
        assert!(g.validate().unwrap_err().contains("no machines"));
    }

    #[test]
    fn job_add() {
        let mut g = mk(0, &[0], &[0]);
        g.push_job(JobId::new(1));
        assert!(g.contains(JobId::new(1)));
        assert_eq!(g.jobs().len(), 2);
    }

    #[test]
    fn prune_drops_empty_groups() {
        let mut grouping = Grouping::from_groups(vec![mk(0, &[], &[0]), mk(1, &[1], &[1])]);
        grouping.prune_empty();
        assert_eq!(grouping.len(), 1);
        assert_eq!(grouping.groups()[0].id(), GroupId::new(1));
    }

    #[test]
    fn display_renders_groups() {
        let grouping = Grouping::from_groups(vec![mk(0, &[0, 1], &[0, 1])]);
        let s = grouping.to_string();
        assert!(s.contains("G0[J0,J1] x2 machines"));
    }
}
