//! A minimal HTTP/1.1 client: one request per connection, as the server
//! answers with `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header lines as (name, value).
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
    /// Time to establish the TCP connection.
    pub connect: Duration,
}

impl Response {
    /// The first header named `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let connect = start.elapsed();
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(format!("{head}{body}").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let mut response = parse_response(&raw)?;
    response.connect = connect;
    Ok(response)
}

/// Parses a complete `Connection: close` response.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok(Response {
        status,
        headers,
        body: body.to_string(),
        connect: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let r =
            parse_response(b"HTTP/1.1 200 OK\r\nX-Request-Id: 7\r\nContent-Length: 2\r\n\r\n{}")
                .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-request-id"), Some("7"));
        assert_eq!(r.body, "{}");
        assert!(parse_response(b"garbage").is_err());
    }
}
