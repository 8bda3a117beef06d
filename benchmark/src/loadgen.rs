//! The harness's own publisher: one session-protocol connection
//! (`FDIFFSES` + id -> `FDIFFACK` + watermark, then
//! `[tag u8][len u32 LE][payload]` records) replaying a pre-encoded
//! stream either as fast as TCP accepts it or on a fixed schedule.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use netsim::net::{SESSION_ACK, SESSION_MAGIC};

use crate::inputs::Stream;

const REC_DATA: u8 = 0;
const REC_END: u8 = 2;

/// Closed-loop record size: the same as `netsim::net`'s publisher, so
/// the server's decoder sees frames split across reads.
const WRITE_CHUNK: usize = 8_192 - 7;

/// Open-loop schedule of one stream: local event `i` is due
/// `due_us[i]` microseconds after `t0`.
pub struct Pace<'a> {
    pub t0: Instant,
    pub due_us: &'a [u64],
}

/// What one connection did.
pub struct Published {
    /// Just before the first payload byte was written.
    pub first_write: Instant,
    /// Just after the last payload byte was written.
    pub last_write: Instant,
    /// `(slot, due)` for each marked event: when the event was due —
    /// its scheduled time (open loop) or the moment the record holding
    /// it had been written (closed loop).
    pub due: Vec<(usize, Instant)>,
    /// Open loop: how late each record was written, microseconds.
    pub late_us: Vec<f64>,
}

/// Replays `stream` over one session connection to `addr`. `marks` are
/// `(local event index, slot)` pairs, ascending, whose due times are
/// reported back.
pub fn publish(
    addr: SocketAddr,
    session: u64,
    stream: &Stream,
    marks: &[(usize, usize)],
    pace: Option<Pace<'_>>,
) -> std::io::Result<Published> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let mut hello = [0u8; 16];
    hello[..8].copy_from_slice(SESSION_MAGIC);
    hello[8..].copy_from_slice(&session.to_le_bytes());
    sock.write_all(&hello)?;
    let mut ack = [0u8; 16];
    sock.read_exact(&mut ack)?;
    if &ack[..8] != SESSION_ACK || ack[8..] != [0u8; 8] {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "expected FDIFFACK with a zero watermark",
        ));
    }

    let mut out = Published {
        first_write: Instant::now(),
        last_write: Instant::now(),
        due: Vec::with_capacity(marks.len()),
        late_us: Vec::new(),
    };
    let mut record = Vec::with_capacity(2 * WRITE_CHUNK);
    let mut marks = marks.iter().copied().peekable();
    let n = stream.ends.len();
    let mut from = 0usize; // first local event of the next record
    let mut byte_from = 0usize; // the first record carries the magic
    while from < n {
        // The record covers local events [from, to).
        let mut to = from + 1;
        let scheduled = match &pace {
            None => {
                while to < n && stream.ends[to - 1] - byte_from < WRITE_CHUNK {
                    to += 1;
                }
                None
            }
            Some(pace) => {
                // Events due within the same millisecond share a record.
                let slot_ms = pace.due_us[from] / 1_000;
                while to < n && pace.due_us[to] / 1_000 == slot_ms {
                    to += 1;
                }
                let due = pace.t0 + Duration::from_micros(pace.due_us[from]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                out.late_us
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                Some(pace)
            }
        };
        let body = &stream.payload[byte_from..stream.ends[to - 1]];
        record.clear();
        record.push(REC_DATA);
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        record.extend_from_slice(body);
        if from == 0 {
            out.first_write = Instant::now();
        }
        sock.write_all(&record)?;
        out.last_write = Instant::now();
        while let Some((local, slot)) = marks.next_if(|&(local, _)| local < to) {
            let due = match scheduled {
                Some(pace) => pace.t0 + Duration::from_micros(pace.due_us[local]),
                None => out.last_write,
            };
            out.due.push((slot, due));
        }
        byte_from = stream.ends[to - 1];
        from = to;
    }
    sock.write_all(&[REC_END, 0, 0, 0, 0])?;
    // Half-close, then read to EOF: the server's close confirms it
    // consumed the whole stream.
    sock.shutdown(Shutdown::Write)?;
    let mut sink = [0u8; 256];
    while matches!(sock.read(&mut sink), Ok(n) if n > 0) {}
    Ok(out)
}
