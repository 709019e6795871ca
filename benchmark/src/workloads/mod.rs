//! The seven workloads. Each module's `rep` does one repetition: set-up
//! (assemble, boot, load, populate, warm-up), the timed section, and the
//! oracle.

pub mod compute;
pub mod open_churn;
pub mod pingpong;
pub mod pipes;
pub mod smp_mix;
pub mod thread_churn;

use crate::harness::{Ctx, Rep};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compute,
    PipeSmall,
    PipeBulk,
    PipePingpong,
    OpenChurn,
    ThreadChurn,
    SmpMix,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Compute,
        Workload::PipeSmall,
        Workload::PipeBulk,
        Workload::PipePingpong,
        Workload::OpenChurn,
        Workload::ThreadChurn,
        Workload::SmpMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::PipeSmall => "pipe_small",
            Workload::PipeBulk => "pipe_bulk",
            Workload::PipePingpong => "pipe_pingpong",
            Workload::OpenChurn => "open_churn",
            Workload::ThreadChurn => "thread_churn",
            Workload::SmpMix => "smp_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Compute => "one q[i] update",
            Workload::PipeSmall => "one 1-byte write+read pair",
            Workload::PipeBulk => "1 KB written and read back",
            Workload::PipePingpong => "one 1-byte round trip",
            Workload::OpenChurn => "one open+close",
            Workload::ThreadChurn => "one thread lifecycle",
            Workload::SmpMix => "one worker iteration",
        }
    }

    pub fn rep(self, ctx: &mut Ctx) -> Result<Rep, String> {
        match self {
            Workload::Compute => compute::rep(ctx),
            Workload::PipeSmall => pipes::rep(ctx, "pipe_small", &pipes::SMALL),
            Workload::PipeBulk => pipes::rep(ctx, "pipe_bulk", &pipes::BULK),
            Workload::PipePingpong => pingpong::rep(ctx),
            Workload::OpenChurn => open_churn::rep(ctx),
            Workload::ThreadChurn => thread_churn::rep(ctx),
            Workload::SmpMix => smp_mix::rep(ctx),
        }
    }
}
