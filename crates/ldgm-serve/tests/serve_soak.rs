//! Threaded soak: 64 concurrent connections hammer the reactor with
//! interleaved updates and point queries, and the shutdown-time offline
//! replay check must still report a bit-identical matching — i.e. the
//! event loops, shard routing, and coalescer preserved every tenant's
//! arrival order under real socket concurrency.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ldgm_dyn::DynConfig;
use ldgm_gpusim::json::{self, Json};
use ldgm_gpusim::Platform;
use ldgm_graph::gen::urand;
use ldgm_serve::{serve, MatchService, ServeConfig};

const CONNS: usize = 64;
const UPDATES_PER_CONN: usize = 6;
const N: u32 = 300;

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { reader, stream }
    }

    fn send(&mut self, line: &str) -> Json {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        json::parse(resp.trim()).unwrap()
    }
}

#[test]
fn sixty_four_connection_soak_stays_replay_identical() {
    let g = urand(N as usize, 1200, 17);
    let cfg = DynConfig::new(Platform::dgx_a100()).devices(2);
    let service = Arc::new(MatchService::new(
        "g",
        g,
        cfg,
        ServeConfig {
            coalesce_target: 48,
            deadline: Duration::from_millis(5),
            max_pending_per_tenant: 256,
        },
    ));
    let handle = serve(vec![service], "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr;

    let joins: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let hello = client.send(&format!(r#"{{"op":"hello","tenant":"soak-{c}"}}"#));
                assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true), "conn {c}");
                for i in 0..UPDATES_PER_CONN {
                    let u = ((c * 5 + i * 3) as u32) % N;
                    let v = (u + 1 + ((c + i) as u32 % (N - 1))) % N;
                    let line = if (c + i) % 5 == 0 {
                        format!(r#"{{"op":"update","kind":"delete","u":{u},"v":{v}}}"#)
                    } else {
                        let w = 1.0 + ((c * 31 + i * 7) % 97) as f64;
                        format!(r#"{{"op":"update","kind":"insert","u":{u},"v":{v},"w":{w:.1}}}"#)
                    };
                    let ack = client.send(&line);
                    // Either admitted or (under pathological timing)
                    // admission-controlled; both keep replay identity.
                    let ok = ack.get("ok").and_then(Json::as_bool) == Some(true);
                    let throttled = ack.get("code").and_then(Json::as_f64) == Some(429.0);
                    assert!(ok || throttled, "conn {c} update {i}: {ack:?}");

                    let q = (u + i as u32) % N;
                    let mate = client.send(&format!(r#"{{"op":"mate","v":{q}}}"#));
                    assert_eq!(
                        mate.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "conn {c} query {i}"
                    );
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }

    // One last connection inspects the transport and stops the server.
    let mut closer = Client::connect(addr);
    let stats = closer.send(r#"{"op":"stats"}"#);
    let server = stats.get("server").expect("server transport object");
    assert_eq!(server.get("io").and_then(Json::as_str), Some("reactor"));
    assert!(
        server.get("accepted").and_then(Json::as_f64).unwrap() >= (CONNS + 1) as f64,
        "every soak connection must have been accepted"
    );
    assert!(
        server.get("requests").and_then(Json::as_f64).unwrap()
            >= (CONNS * 2 * UPDATES_PER_CONN) as f64
    );

    let bye = closer.send(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    assert_eq!(
        bye.get("replay_identical").and_then(Json::as_bool),
        Some(true),
        "64-connection soak must stay bit-identical to the offline replay: {bye:?}"
    );
    handle.join();
}
