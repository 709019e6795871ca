//! The quaject interfacer's combination stage.
//!
//! "The quaject interfacer starts the execution of existing quajects by
//! installing them in the invoking thread. \[It\] has four stages:
//! combination, factorization, optimization, and dynamic link. The
//! combination stage finds the appropriate connecting mechanism (queue,
//! monitor, pump, or a simple procedure call)" (paper Section 2.3).
//!
//! The *combination* rules come from the producer/consumer analysis of
//! Section 5.2:
//!
//! | producer | consumer | connector |
//! |---|---|---|
//! | active | passive (or vice versa), both single | procedure call |
//! | active | passive, a side multiple | monitor on the multiple side |
//! | active | active | queue (SP-SC / MP-SC / SP-MC / MP-MC) |
//! | passive | passive | pump |
//!
//! The other three stages are the creator's pipeline: the kernel's stream
//! channels synthesize the chosen connector's queue endpoints from its own
//! template library.

/// One side of a producer/consumer composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Party {
    /// Whether this side drives the data flow (calls), rather than being
    /// called.
    pub active: bool,
    /// Whether more than one participant shares this side.
    pub multiple: bool,
}

impl Party {
    /// A single active participant.
    #[must_use]
    pub fn active_single() -> Party {
        Party {
            active: true,
            multiple: false,
        }
    }

    /// Multiple active participants.
    #[must_use]
    pub fn active_multiple() -> Party {
        Party {
            active: true,
            multiple: true,
        }
    }

    /// A single passive participant.
    #[must_use]
    pub fn passive_single() -> Party {
        Party {
            active: false,
            multiple: false,
        }
    }

    /// Multiple passive participants.
    #[must_use]
    pub fn passive_multiple() -> Party {
        Party {
            active: false,
            multiple: true,
        }
    }
}

/// The connecting mechanism chosen by the combination stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connector {
    /// A simple procedure call (active→passive, single-single) — the case
    /// Collapsing Layers then erases entirely.
    DirectCall,
    /// A monitor serializing the multiple participants of a passive side.
    Monitor,
    /// Single-producer single-consumer queue (paper Figure 1).
    SpscQueue,
    /// Multiple-producer single-consumer optimistic queue (Figure 2).
    MpscQueue,
    /// Single-producer multiple-consumer optimistic queue.
    SpmcQueue,
    /// Multiple-producer multiple-consumer optimistic queue.
    MpmcQueue,
    /// A pump: a kernel thread actively copying from a passive producer
    /// to a passive consumer (the `xclock` case).
    Pump,
}

/// The combination stage: pick the connector for a producer/consumer pair
/// (paper Section 5.2).
#[must_use]
pub fn choose_connector(producer: Party, consumer: Party) -> Connector {
    match (producer.active, consumer.active) {
        // Active-passive (either direction): call, or monitor when a side
        // has multiple participants to serialize.
        (true, false) | (false, true) => {
            if producer.multiple || consumer.multiple {
                Connector::Monitor
            } else {
                Connector::DirectCall
            }
        }
        // Active-active: a queue mediates; multiplicity picks the kind.
        (true, true) => match (producer.multiple, consumer.multiple) {
            (false, false) => Connector::SpscQueue,
            (true, false) => Connector::MpscQueue,
            (false, true) => Connector::SpmcQueue,
            (true, true) => Connector::MpmcQueue,
        },
        // Passive-passive: a pump animates the flow.
        (false, false) => Connector::Pump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_matrix_matches_section_5_2() {
        use Connector::*;
        let a1 = Party::active_single();
        let am = Party::active_multiple();
        let p1 = Party::passive_single();
        let pm = Party::passive_multiple();

        assert_eq!(choose_connector(a1, p1), DirectCall);
        assert_eq!(choose_connector(p1, a1), DirectCall);
        assert_eq!(choose_connector(am, p1), Monitor);
        assert_eq!(choose_connector(a1, pm), Monitor);
        assert_eq!(choose_connector(a1, a1), SpscQueue);
        assert_eq!(choose_connector(am, a1), MpscQueue);
        assert_eq!(choose_connector(a1, am), SpmcQueue);
        assert_eq!(choose_connector(am, am), MpmcQueue);
        assert_eq!(choose_connector(p1, p1), Pump);
        assert_eq!(choose_connector(pm, pm), Pump);
    }
}
