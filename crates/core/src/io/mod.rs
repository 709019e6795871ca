//! I/O: streams, device servers, pipes, and the tty discipline (paper
//! Section 5).
//!
//! "In Synthesis, I/O means more than device drivers. I/O includes all
//! data flow among hardware devices and quaspaces" (Section 5).

pub mod pipe;
pub mod stream;
pub mod tty;
