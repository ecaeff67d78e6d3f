//! The serving loop: a single-threaded, non-blocking HTTP/1.1 + SSE
//! server over [`std::net::TcpListener`], driving a live-ingress
//! [`ClusterSim`].
//!
//! One thread does everything — accept, read, parse, submit, step the sim,
//! stream tokens — so detlint's thread rule holds in this crate with no
//! waivers.
//! Sockets are non-blocking; the loop paces itself with
//! [`crate::pacing::Pacer`], the workspace's only wall-clock site.
//!
//! Endpoints:
//! * `POST /v1/completions` — blocking JSON, or SSE when `"stream": true`
//! * `GET /v1/models` — the one model this cluster serves
//! * `GET /metrics` — point-in-time JSON dump of the metrics registry
//! * `POST /admin/shutdown` — drain in-flight requests, then exit

use crate::http::{self, HttpError, Parse, Request};
use crate::pacing::Pacer;
use crate::session::SessionTable;
use deepserve::{
    fleet_catalog, ApiRequest, ClusterConfig, ClusterSim, FleetConfig, IngressRecord, LiveEvent,
    ModelRegistry, TeRole,
};
use flowserve::{CacheId, Tokenizer};
use serde::{Number, Value};
use simcore::IdMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Sim seconds per wall second (values above 1 compress wall time).
    pub timescale: f64,
    /// Number of PD-colocated TEs in the serving pool.
    pub tes: usize,
    /// Exit after this many completions finished (or failed); `None`
    /// keeps serving until `POST /admin/shutdown`.
    pub max_requests: Option<u64>,
    /// `max_tokens` used when a request does not specify one.
    pub default_max_tokens: u32,
    /// Hard cap on a request's `max_tokens`.
    pub max_tokens_cap: u32,
    /// Wall-clock safety deadline in milliseconds; the loop force-drains
    /// and exits past it. `None` = no deadline.
    pub max_wall_ms: Option<u64>,
    /// Model name advertised by `/v1/models` and stamped on completions.
    pub model_name: String,
    /// Serve a model fleet of this many registered endpoints instead of
    /// the single pre-warmed model; `0` keeps the single-model gateway.
    /// Completion bodies pick an endpoint with `"model": "<name>"`, and
    /// `/v1/models` reports per-endpoint load states.
    pub fleet_models: usize,
    /// LRU cap on live sessions (see [`SessionTable`]).
    pub session_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            timescale: 20.0,
            tes: 2,
            max_requests: None,
            default_max_tokens: 16,
            max_tokens_cap: 2048,
            max_wall_ms: None,
            model_name: "deepserve-34b".to_string(),
            fleet_models: 0,
            session_capacity: crate::session::DEFAULT_SESSION_CAPACITY,
        }
    }
}

/// Builds the deterministic cluster the gateway serves from — and the one
/// a replay must rebuild to reproduce the live run (same topology, same
/// config, no wall clock).
pub fn build_sim(tes: usize) -> ClusterSim {
    let cfg = ClusterConfig::standard_34b();
    let roles = vec![TeRole::Colocated; tes.max(1)];
    ClusterSim::new(cfg, &roles)
}

/// [`build_sim`] plus a fleet of `models` registered endpoints, every
/// checkpoint staged on local SSD (the deployment the storage hierarchy
/// assumes). A replay of a fleet session log must rebuild with the same
/// `(tes, models)` pair.
pub fn build_fleet_sim(tes: usize, models: usize) -> ClusterSim {
    let mut sim = build_sim(tes);
    sim.enable_fleet(fleet_catalog(models), FleetConfig::default());
    sim.stage_fleet_on_ssd();
    sim
}

/// What a finished serve run hands back: the deterministic final report
/// (as its canonical JSON string) plus the replayable ingress log.
#[derive(Debug)]
pub struct ServeOutcome {
    /// `RunReport::to_json().to_json()` — the replay-comparable bytes.
    pub report_json: String,
    /// Every accepted submission, in arrival order.
    pub ingress: Vec<IngressRecord>,
    /// Completions delivered (finished or failed).
    pub served: u64,
}

/// Per-request bookkeeping while the sim works on it.
#[derive(Debug)]
struct PendingRequest {
    req_id: u64,
    prompt_tokens: usize,
    /// Words already streamed to the client.
    emitted: u64,
    /// SSE mode (false = answer once on finish).
    streaming: bool,
    /// Fleet endpoint name to echo in responses (None = the gateway's
    /// single advertised model).
    model: Option<String>,
}

#[derive(Debug)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// Request submitted; events will complete it.
    Pending(PendingRequest),
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    state: ConnState,
}

/// The gateway server. Construct with [`Server::bind`], drive with
/// [`Server::run`].
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    sim: ClusterSim,
    pacer: Pacer,
    sessions: SessionTable,
    tokenizer: Tokenizer,
    conns: Vec<Option<Conn>>,
    /// Request id -> connection slot. Point-lookup only (never iterated).
    waiters: IdMap<u64, usize>,
    next_req_id: u64,
    served: u64,
    shutdown: bool,
}

impl Server {
    /// Binds the listener and stands up the live cluster.
    pub fn bind(cfg: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| format!("cannot bind {addr}: {e}", addr = cfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;
        let mut sim = if cfg.fleet_models > 0 {
            build_fleet_sim(cfg.tes, cfg.fleet_models)
        } else {
            build_sim(cfg.tes)
        };
        sim.enable_live_ingress();
        sim.set_token_events(true);
        let pacer = Pacer::new(cfg.timescale);
        let sessions = SessionTable::with_capacity(cfg.session_capacity);
        Ok(Server {
            cfg,
            listener,
            sim,
            pacer,
            sessions,
            tokenizer: Tokenizer::default(),
            conns: Vec::new(),
            waiters: IdMap::default(),
            next_req_id: 1,
            served: 0,
            shutdown: false,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// Serves until shutdown (admin endpoint, `max_requests`, or the wall
    /// deadline), then drains the sim and returns the final outcome.
    pub fn run(mut self) -> ServeOutcome {
        let deadline_sim = self.cfg.max_wall_ms.map(|ms| {
            simcore::SimTime::ZERO
                + simcore::SimDuration::from_nanos((ms as f64 * 1e6 * self.cfg.timescale) as u64)
        });
        loop {
            let draining =
                self.shutdown || self.cfg.max_requests.is_some_and(|max| self.served >= max);
            if !draining {
                self.accept_new();
            }
            self.read_conns();
            let limit = self.pacer.now_sim();
            if self.sim.next_event_time().is_some_and(|t| t <= limit) {
                self.sim.step_until(limit);
            }
            self.dispatch_events();
            let draining =
                self.shutdown || self.cfg.max_requests.is_some_and(|max| self.served >= max);
            if draining && self.waiters.is_empty() {
                break;
            }
            if deadline_sim.is_some_and(|d| self.pacer.now_sim() >= d) {
                // Safety valve: a wedged client must not hang the process.
                break;
            }
            // Sleep until the next sim event is due on the wall clock,
            // capped so new connections stay responsive.
            match self.sim.next_event_time() {
                Some(next) => self.pacer.sleep_until_sim(next, 2),
                None => Pacer::sleep_brief(),
            }
        }
        let ingress = self.sim.ingress_log().to_vec();
        let mut report = self.sim.run_to_completion();
        ServeOutcome {
            report_json: report.to_json().to_json(),
            ingress,
            served: self.served,
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // peer already gone
                    }
                    let conn = Conn {
                        stream,
                        buf: Vec::new(),
                        state: ConnState::Reading,
                    };
                    if let Some(slot) = self.conns.iter().position(Option::is_none) {
                        self.conns[slot] = Some(conn);
                    } else {
                        self.conns.push(Some(conn));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept error; retry next tick
            }
        }
    }

    fn read_conns(&mut self) {
        for slot in 0..self.conns.len() {
            let mut chunk = [0u8; 4096];
            let action = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                if !matches!(conn.state, ConnState::Reading) {
                    // A pending connection that hangs up mid-stream is
                    // detected by its next write; nothing to read here.
                    continue;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => ReadAction::Close,
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        match http::parse_request(&conn.buf) {
                            Parse::NeedMore => ReadAction::Keep,
                            Parse::Complete(req, _) => ReadAction::Handle(req),
                            Parse::Invalid(err) => ReadAction::Reject(err),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => ReadAction::Keep,
                    Err(_) => ReadAction::Close,
                }
            };
            match action {
                ReadAction::Keep => {}
                ReadAction::Close => self.drop_conn(slot),
                ReadAction::Reject(err) => {
                    self.write_to(slot, &http::error_response(&err));
                    self.drop_conn(slot);
                }
                ReadAction::Handle(req) => self.route(slot, &req),
            }
        }
    }

    fn route(&mut self, slot: usize, req: &Request) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/completions") => self.handle_completion(slot, req),
            ("GET", "/v1/models") => {
                let body = match self.sim.fleet_registry() {
                    Some(reg) => fleet_models_json(reg),
                    None => models_json(&self.cfg.model_name),
                };
                self.write_to(slot, &http::response(200, "application/json", &body));
                self.drop_conn(slot);
            }
            ("GET", "/metrics") => {
                let body = self.sim.metrics_snapshot_json().to_json_pretty();
                self.write_to(
                    slot,
                    &http::response(200, "application/json", body.as_bytes()),
                );
                self.drop_conn(slot);
            }
            ("POST", "/admin/shutdown") => {
                self.shutdown = true;
                self.write_to(
                    slot,
                    &http::response(200, "application/json", b"{\"ok\":true}"),
                );
                self.drop_conn(slot);
            }
            (_, "/v1/completions" | "/v1/models" | "/metrics" | "/admin/shutdown") => {
                let err = HttpError::new(405, "method not allowed for this route");
                self.write_to(slot, &http::error_response(&err));
                self.drop_conn(slot);
            }
            _ => {
                let err = HttpError::new(404, "unknown route");
                self.write_to(slot, &http::error_response(&err));
                self.drop_conn(slot);
            }
        }
    }

    fn handle_completion(&mut self, slot: usize, req: &Request) {
        let parsed = match parse_completion_body(req, &self.cfg) {
            Ok(p) => p,
            Err(err) => {
                self.write_to(slot, &http::error_response(&err));
                self.drop_conn(slot);
                return;
            }
        };
        let tokens = self.tokenizer.tokenize(&parsed.prompt);
        if tokens.is_empty() {
            let err = HttpError::new(400, "prompt must not be empty");
            self.write_to(slot, &http::error_response(&err));
            self.drop_conn(slot);
            return;
        }
        // Resolve the target endpoint in fleet mode. An unknown name is
        // rejected here, before it enters the sim; requests naming the
        // gateway's advertised single model (or naming nothing) take the
        // untagged pre-warmed path.
        let model_idx = match (&parsed.model, self.sim.fleet_registry()) {
            (Some(name), Some(reg)) if name != &self.cfg.model_name => match reg.find(name) {
                Some(m) => Some(m),
                None => {
                    let err = HttpError::new(404, format!("unknown model {name:?}"));
                    self.write_to(slot, &http::error_response(&err));
                    self.drop_conn(slot);
                    return;
                }
            },
            _ => None,
        };
        let cache_id = parsed
            .session
            .as_deref()
            .map(|key| CacheId(self.sessions.cache_id(key)));
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let prompt_tokens = tokens.len();
        let mut api = ApiRequest::chat(req_id, tokens, parsed.max_tokens, self.pacer.now_sim());
        api.cache_id = cache_id;
        api.model = model_idx;
        self.sim.submit_live(api);
        if parsed.stream {
            self.write_to(slot, &http::sse_head());
        }
        // The write may have dropped the connection (client vanished); the
        // request still runs, its events just find no waiter.
        if self.conns[slot].is_some() {
            self.waiters.insert(req_id, slot);
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.state = ConnState::Pending(PendingRequest {
                    req_id,
                    prompt_tokens,
                    emitted: 0,
                    streaming: parsed.stream,
                    model: model_idx.and(parsed.model),
                });
            }
        }
    }

    fn dispatch_events(&mut self) {
        for ev in self.sim.take_live_events() {
            match ev {
                LiveEvent::FirstToken { id, .. } => self.on_tokens(id.0, 1),
                LiveEvent::Tokens { id, n, .. } => self.on_tokens(id.0, u64::from(n)),
                LiveEvent::Finished {
                    id, output_tokens, ..
                } => self.on_done(id.0, Some(output_tokens)),
                LiveEvent::Failed { id, .. } => self.on_done(id.0, None),
            }
        }
    }

    /// Streams `n` more completion words to `req_id`'s waiter (SSE mode);
    /// blocking waiters just advance their emitted count.
    fn on_tokens(&mut self, req_id: u64, n: u64) {
        let Some(&slot) = self.waiters.get(&req_id) else {
            return; // client hung up earlier
        };
        let frame = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let ConnState::Pending(p) = &mut conn.state else {
                return;
            };
            let from = p.emitted;
            p.emitted += n;
            if !p.streaming {
                return;
            }
            let text = completion_text(req_id, from, p.emitted);
            let model = p.model.as_deref().unwrap_or(&self.cfg.model_name);
            http::sse_frame(&chunk_json(req_id, model, &text, None).to_json())
        };
        self.write_to(slot, &frame);
        if self.conns[slot].is_none() {
            // Mid-stream disconnect: stop routing events at this waiter.
            self.waiters.remove(&req_id);
        }
    }

    /// Completes `req_id`: `total` is the full output length on success,
    /// `None` on permanent failure.
    fn on_done(&mut self, req_id: u64, total: Option<u64>) {
        self.served += 1;
        let Some(slot) = self.waiters.remove(&req_id) else {
            return; // client hung up earlier
        };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let ConnState::Pending(p) = &mut conn.state else {
            return;
        };
        let model = p
            .model
            .clone()
            .unwrap_or_else(|| self.cfg.model_name.clone());
        match (total, p.streaming) {
            (Some(total), true) => {
                // Flush any tokens the event stream did not cover, then a
                // final frame with the finish reason, then the terminator.
                let mut out = Vec::new();
                if p.emitted < total {
                    let text = completion_text(req_id, p.emitted, total);
                    out.extend_from_slice(&http::sse_frame(
                        &chunk_json(req_id, &model, &text, None).to_json(),
                    ));
                }
                out.extend_from_slice(&http::sse_frame(
                    &chunk_json(req_id, &model, "", Some("stop")).to_json(),
                ));
                out.extend_from_slice(&http::sse_frame("[DONE]"));
                self.write_to(slot, &out);
            }
            (Some(total), false) => {
                let text = completion_text(req_id, 0, total);
                let body = completion_json(req_id, &model, &text, p.prompt_tokens, total).to_json();
                self.write_to(
                    slot,
                    &http::response(200, "application/json", body.as_bytes()),
                );
            }
            (None, true) => {
                let mut out =
                    http::sse_frame("{\"error\":{\"message\":\"request failed\",\"code\":503}}");
                out.extend_from_slice(&http::sse_frame("[DONE]"));
                self.write_to(slot, &out);
            }
            (None, false) => {
                let err = HttpError::new(503, "request failed in the serving pool");
                self.write_to(slot, &http::error_response(&err));
            }
        }
        self.drop_conn(slot);
    }

    /// Writes the whole buffer, retrying short/blocked writes briefly.
    /// Any hard error (peer gone, retry budget exhausted) drops the
    /// connection — never panics, never wedges the loop.
    fn write_to(&mut self, slot: usize, bytes: &[u8]) {
        let ok = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            write_all_nonblocking(&mut conn.stream, bytes)
        };
        if !ok {
            self.drop_conn(slot);
        }
    }

    fn drop_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            if let ConnState::Pending(p) = conn.state {
                self.waiters.remove(&p.req_id);
            }
            // Socket closes on drop.
        }
    }
}

enum ReadAction {
    Keep,
    Close,
    Reject(HttpError),
    Handle(Box<Request>),
}

/// Fields of a `POST /v1/completions` body the gateway understands.
struct CompletionParams {
    prompt: String,
    max_tokens: u32,
    stream: bool,
    session: Option<String>,
    model: Option<String>,
}

fn parse_completion_body(req: &Request, cfg: &ServerConfig) -> Result<CompletionParams, HttpError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError::new(400, "request body is not UTF-8"))?;
    let v = Value::parse(text).map_err(|_| HttpError::new(400, "request body is not JSON"))?;
    let prompt = v
        .get("prompt")
        .and_then(Value::as_str)
        .ok_or_else(|| HttpError::new(400, "missing string field \"prompt\""))?
        .to_string();
    let max_tokens = match v.get("max_tokens") {
        None => cfg.default_max_tokens,
        Some(m) => u32::try_from(
            m.as_u64()
                .ok_or_else(|| HttpError::new(400, "\"max_tokens\" must be a positive integer"))?,
        )
        .map_err(|_| HttpError::new(400, "\"max_tokens\" out of range"))?,
    };
    if max_tokens == 0 || max_tokens > cfg.max_tokens_cap {
        return Err(HttpError::new(
            400,
            format!(
                "\"max_tokens\" must be between 1 and {cap}",
                cap = cfg.max_tokens_cap
            ),
        ));
    }
    let stream = match v.get("stream") {
        None => false,
        Some(s) => s
            .as_bool()
            .ok_or_else(|| HttpError::new(400, "\"stream\" must be a boolean"))?,
    };
    // Session identity: explicit `session` field, else the API key.
    let session = v
        .get("session")
        .and_then(Value::as_str)
        .map(str::to_string)
        .or_else(|| req.header("authorization").map(str::to_string));
    let model = match v.get("model") {
        None => None,
        Some(m) => Some(
            m.as_str()
                .ok_or_else(|| HttpError::new(400, "\"model\" must be a string"))?
                .to_string(),
        ),
    };
    Ok(CompletionParams {
        prompt,
        max_tokens,
        stream,
        session,
        model,
    })
}

/// True on full success; false means the connection should be dropped.
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> bool {
    // ~2 s worth of 1 ms backoffs: a stalled client gets disconnected
    // rather than wedging the single-threaded loop.
    let mut budget = 2000u32;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if budget == 0 {
                    return false;
                }
                budget -= 1;
                Pacer::sleep_brief();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    let _ = stream.flush();
    true
}

/// Deterministic synthetic completion text: the engine simulates timing,
/// not content, so the gateway derives stable words from the request id
/// and token index (same request in a replayed log → same text).
const WORDS: [&str; 16] = [
    "alpha", "bravo", "cedar", "delta", "ember", "frost", "gleam", "harbor", "island", "juniper",
    "kernel", "lumen", "meadow", "nectar", "onyx", "prairie",
];

fn completion_word(req_id: u64, idx: u64) -> &'static str {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in req_id.to_le_bytes().iter().chain(idx.to_le_bytes().iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    WORDS[(h % WORDS.len() as u64) as usize]
}

/// Words `[from, to)` of `req_id`'s completion, space-separated, with a
/// leading space for every word so chunks concatenate cleanly.
fn completion_text(req_id: u64, from: u64, to: u64) -> String {
    let mut out = String::new();
    for idx in from..to {
        out.push(' ');
        out.push_str(completion_word(req_id, idx));
    }
    out
}

fn models_json(model: &str) -> Vec<u8> {
    Value::Object(vec![
        ("object".to_string(), Value::String("list".to_string())),
        (
            "data".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("id".to_string(), Value::String(model.to_string())),
                ("object".to_string(), Value::String("model".to_string())),
            ])]),
        ),
    ])
    .to_json()
    .into_bytes()
}

/// `/v1/models` in fleet mode: every registered endpoint with its live
/// load state, so a client can see which models are warm before paying a
/// cold start.
fn fleet_models_json(reg: &ModelRegistry) -> Vec<u8> {
    let data = (0..reg.len() as u32)
        .filter_map(|m| {
            reg.entry(m).map(|e| {
                Value::Object(vec![
                    ("id".to_string(), Value::String(e.name.clone())),
                    ("object".to_string(), Value::String("model".to_string())),
                    (
                        "state".to_string(),
                        Value::String(reg.state(m).as_str().to_string()),
                    ),
                    (
                        "replicas".to_string(),
                        Value::Number(Number::U64(reg.hosts(m).len() as u64)),
                    ),
                ])
            })
        })
        .collect();
    Value::Object(vec![
        ("object".to_string(), Value::String("list".to_string())),
        ("data".to_string(), Value::Array(data)),
    ])
    .to_json()
    .into_bytes()
}

fn chunk_json(req_id: u64, model: &str, text: &str, finish: Option<&str>) -> Value {
    Value::Object(vec![
        ("id".to_string(), Value::String(format!("cmpl-{req_id}"))),
        (
            "object".to_string(),
            Value::String("text_completion.chunk".to_string()),
        ),
        ("model".to_string(), Value::String(model.to_string())),
        (
            "choices".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("index".to_string(), Value::Number(Number::U64(0))),
                ("text".to_string(), Value::String(text.to_string())),
                (
                    "finish_reason".to_string(),
                    finish.map_or(Value::Null, |f| Value::String(f.to_string())),
                ),
            ])]),
        ),
    ])
}

fn completion_json(
    req_id: u64,
    model: &str,
    text: &str,
    prompt_tokens: usize,
    completion_tokens: u64,
) -> Value {
    Value::Object(vec![
        ("id".to_string(), Value::String(format!("cmpl-{req_id}"))),
        (
            "object".to_string(),
            Value::String("text_completion".to_string()),
        ),
        ("model".to_string(), Value::String(model.to_string())),
        (
            "choices".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("index".to_string(), Value::Number(Number::U64(0))),
                ("text".to_string(), Value::String(text.to_string())),
                (
                    "finish_reason".to_string(),
                    Value::String("stop".to_string()),
                ),
            ])]),
        ),
        (
            "usage".to_string(),
            Value::Object(vec![
                (
                    "prompt_tokens".to_string(),
                    Value::Number(Number::U64(prompt_tokens as u64)),
                ),
                (
                    "completion_tokens".to_string(),
                    Value::Number(Number::U64(completion_tokens)),
                ),
                (
                    "total_tokens".to_string(),
                    Value::Number(Number::U64(prompt_tokens as u64 + completion_tokens)),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_text_is_deterministic_and_chunkable() {
        let whole = completion_text(7, 0, 6);
        let parts = format!(
            "{}{}{}",
            completion_text(7, 0, 1),
            completion_text(7, 1, 4),
            completion_text(7, 4, 6)
        );
        assert_eq!(whole, parts);
        assert_eq!(whole, completion_text(7, 0, 6));
        assert_ne!(completion_text(7, 0, 6), completion_text(8, 0, 6));
    }

    #[test]
    fn build_sim_is_reproducible() {
        let mut a = build_sim(2);
        let mut b = build_sim(2);
        let ra = a.run_to_completion().to_json().to_json();
        let rb = b.run_to_completion().to_json().to_json();
        assert_eq!(ra, rb);
    }
}
