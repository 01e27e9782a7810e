//! A load client for the server's wire path. It frames requests with the
//! crate's own `encode_request`/`write_frame` and reads answers with
//! `read_frame`/`decode_response`, sets `TCP_NODELAY` on its socket and
//! sends every frame in one write, so a stall it measures is the server's.

use speakql_server::{decode_response, encode_request, read_frame, write_frame, Request, Response};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// A second handle on the same connection (for a separate reader).
    pub fn try_clone(&self) -> std::io::Result<Client> {
        Ok(Client {
            stream: self.stream.try_clone()?,
        })
    }

    /// Frame and send one request in a single write.
    pub fn send(&mut self, tenant: &str, transcript: &str) -> std::io::Result<()> {
        let payload = encode_request(&Request {
            tenant: tenant.to_string(),
            transcript: transcript.to_string(),
        });
        let mut frame = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut frame, &payload)?;
        self.stream.write_all(&frame)
    }

    /// Read and decode the next response.
    pub fn recv(&mut self) -> Result<Response, String> {
        match read_frame(&mut self.stream) {
            Ok(Some(payload)) => decode_response(&payload).map_err(|e| e.to_string()),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Half-close the sending side: the server sees a clean end of stream
    /// once it has answered everything sent.
    pub fn finish(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}
