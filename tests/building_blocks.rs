//! Composing the building blocks across threads: the producer/consumer
//! cases of paper Section 5.2 with real concurrency.

use synthesis::blocks::spsc;

/// Active producer → SP-SC queue → active consumer → MP-SC merge with a
/// second producer → single drain: a small stream pipeline.
#[test]
fn pipeline_spsc_into_mpsc_merge() {
    const N: u64 = 5_000;
    let (mut p1, mut c1) = spsc::channel::<u64>(64);
    let (mp, mut mc) = synthesis::blocks::mpsc::channel::<u64>(64);

    // Stage 1: generator.
    let gen = std::thread::spawn(move || {
        for i in 0..N {
            let mut v = i;
            loop {
                match p1.put(v) {
                    Ok(()) => break,
                    Err(synthesis::blocks::Full(b)) => {
                        v = b;
                        std::thread::yield_now();
                    }
                }
            }
        }
    });
    // Stage 2: relay from the SPSC into the MPSC (consumer of one,
    // producer of the other).
    let mp2 = mp.clone();
    let relay = std::thread::spawn(move || {
        let mut moved = 0;
        while moved < N {
            if let Some(v) = c1.get() {
                let mut v = v * 2;
                loop {
                    match mp2.put(v) {
                        Ok(()) => break,
                        Err(synthesis::blocks::Full(b)) => {
                            v = b;
                            std::thread::yield_now();
                        }
                    }
                }
                moved += 1;
            } else {
                std::thread::yield_now();
            }
        }
    });
    // A second producer feeding the merge directly.
    let side = std::thread::spawn(move || {
        for i in 0..N {
            let mut v = 1_000_000 + i;
            loop {
                match mp.put(v) {
                    Ok(()) => break,
                    Err(synthesis::blocks::Full(b)) => {
                        v = b;
                        std::thread::yield_now();
                    }
                }
            }
        }
    });
    // Drain.
    let mut evens = 0u64;
    let mut sides = 0u64;
    let mut got = 0u64;
    while got < 2 * N {
        if let Some(v) = mc.get() {
            if v >= 1_000_000 {
                sides += 1;
            } else {
                assert_eq!(v % 2, 0, "relayed items were doubled");
                evens += 1;
            }
            got += 1;
        } else {
            std::thread::yield_now();
        }
    }
    gen.join().unwrap();
    relay.join().unwrap();
    side.join().unwrap();
    assert_eq!(evens, N);
    assert_eq!(sides, N);
}
