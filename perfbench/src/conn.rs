//! A minimal blocking envelope-protocol client: one request in flight.

use pasco_simrank::api::envelope::DEFAULT_MAX_FRAME;
use pasco_simrank::{Envelope, FrameKind, QueryError, QueryRequest, QueryResponse};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A delivered answer: request id, outcome, frame bytes, arrival time.
pub struct Answer {
    pub id: u64,
    pub result: Result<QueryResponse, QueryError>,
    pub bytes: usize,
    pub at: Instant,
}

/// One client connection speaking the envelope protocol.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: u32,
}

impl Client {
    /// Connects and completes the hello / hello-ack handshake.
    pub fn dial(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn =
            Client { stream, buf: Vec::with_capacity(1 << 16), max_frame: DEFAULT_MAX_FRAME };
        let hello: Envelope = Envelope::hello();
        conn.stream.write_all(&hello.to_bytes()).map_err(|e| e.to_string())?;
        let ack = conn.next_frame()?;
        if ack.kind != FrameKind::HelloAck {
            return Err(format!("handshake answered with {:?}", ack.kind));
        }
        conn.max_frame = ack.decode_server_info().map_err(|e| e.to_string())?.max_frame_bytes;
        Ok(conn)
    }

    /// Writes one request frame; returns its encoded size.
    pub fn send_request(&mut self, id: u64, req: &QueryRequest) -> Result<usize, String> {
        let frame: Envelope = Envelope::request(id, req);
        let bytes = frame.to_bytes();
        self.stream.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        Ok(bytes.len())
    }

    /// Waits for the next answer.
    pub fn recv(&mut self) -> Result<Answer, String> {
        let env: Envelope = self.next_frame()?;
        let at = Instant::now();
        let bytes = env.encoded_len();
        let result = match env.kind {
            FrameKind::Response => Ok(env.decode_response().map_err(|e| e.to_string())?),
            FrameKind::Error => Err(env.decode_error().map_err(|e| e.to_string())?),
            other => return Err(format!("unexpected {other:?} frame")),
        };
        Ok(Answer { id: env.request_id, result, bytes, at })
    }

    fn next_frame(&mut self) -> Result<Envelope, String> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match Envelope::decode(&self.buf, self.max_frame) {
                Ok((env, used)) => {
                    self.buf.drain(..used);
                    return Ok(env);
                }
                Err(pasco_simrank::FrameError::Truncated) => {}
                Err(e) => return Err(format!("bad frame: {e}")),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}
