"""The ``GET /dashboard`` page: one self-contained HTML document.

Zero dependencies by design — inline CSS + JS, no CDN, no framework —
so the page works on an air-gapped deployment and adds nothing to the
supply chain.  It is EventSource-driven: the page opens
``/v1/events`` and updates from pushed records (job transitions,
batches, drop markers), refreshing the gauge tiles from ``/v1/stats``
when events indicate change (debounced) plus a slow idle timer.

Visual conventions (deliberate, not decorative):

* gauge tiles carry the headline numbers (queue depth, running,
  in-flight cells, whether a batch is running, cache hit rate);
* one single-series sparkline tracks queue depth over time (2px line,
  hover crosshair with value readout; a single series needs no legend —
  the tile title names it);
* job states are *status* colors (done=good, failed=serious,
  quarantined=critical) and always appear beside their text label, so
  state is never encoded by color alone;
* light and dark are both first-class: the dark values are their own
  validated steps, not an automatic inversion, and follow the OS
  setting.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro service — live operations</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;   /* chart surface */
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --muted: #898781;
    --grid: #e1e0d9;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6;    /* queue-depth sparkline */
    --status-good: #0ca30c;
    --status-serious: #ec835a;
    --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --muted: #898781;
      --grid: #2c2c2a;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 16px 20px; background: var(--page);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 14px; }
  header h1 { font-size: 17px; font-weight: 600; margin: 0; }
  #conn { font-size: 12px; color: var(--text-secondary); }
  #conn .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%;
               margin-right: 4px; background: var(--muted); vertical-align: baseline; }
  #conn.live .dot { background: var(--status-good); }
  .tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr));
           gap: 10px; margin-bottom: 14px; }
  .tile { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 10px 12px; }
  .tile .label { font-size: 11px; text-transform: uppercase; letter-spacing: .04em;
                 color: var(--muted); }
  .tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
  .tile .sub { font-size: 11px; color: var(--text-secondary); }
  .panel { background: var(--surface-1); border: 1px solid var(--border);
           border-radius: 8px; padding: 10px 12px; margin-bottom: 14px; }
  .panel h2 { font-size: 12px; text-transform: uppercase; letter-spacing: .04em;
              color: var(--muted); margin: 0 0 8px; font-weight: 600; }
  #spark-wrap { position: relative; }
  #spark { width: 100%; height: 72px; display: block; cursor: crosshair; }
  #spark-tip { position: absolute; pointer-events: none; display: none;
               background: var(--surface-1); border: 1px solid var(--border);
               border-radius: 4px; padding: 2px 7px; font-size: 11px;
               color: var(--text-primary); white-space: nowrap; }
  table { width: 100%; border-collapse: collapse; font-size: 12.5px; }
  th { text-align: left; color: var(--muted); font-weight: 500; font-size: 11px;
       text-transform: uppercase; letter-spacing: .04em;
       border-bottom: 1px solid var(--grid); padding: 3px 8px 5px 0; }
  td { padding: 4px 8px 4px 0; border-bottom: 1px solid var(--grid);
       color: var(--text-secondary); font-variant-numeric: tabular-nums; }
  td.ev { color: var(--text-primary); }
  .state { color: var(--text-primary); }
  .state .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%;
                margin-right: 5px; background: var(--muted); }
  .state.done .dot { background: var(--status-good); }
  .state.failed .dot { background: var(--status-serious); }
  .state.quarantined .dot { background: var(--status-critical); }
  .state.running .dot, .state.claimed .dot { background: var(--series-1); }
  .controls { float: right; font-size: 12px; color: var(--text-secondary);
              font-weight: 400; text-transform: none; letter-spacing: 0; }
  #empty-feed { color: var(--muted); font-size: 12.5px; }
</style>
</head>
<body>
<header>
  <h1>repro service — live operations</h1>
  <span id="conn"><span class="dot"></span><span id="conn-text">connecting…</span></span>
  <span id="uptime" style="font-size:12px;color:var(--muted)"></span>
</header>

<div class="tiles">
  <div class="tile"><div class="label">Queue depth</div>
    <div class="value" id="t-depth">–</div>
    <div class="sub" id="t-states"></div></div>
  <div class="tile"><div class="label">Batch running</div>
    <div class="value" id="t-active">–</div>
    <div class="sub" id="t-workers"></div></div>
  <div class="tile"><div class="label">In-flight cells</div>
    <div class="value" id="t-cells">–</div>
    <div class="sub" id="t-batches"></div></div>
  <div class="tile"><div class="label">Cache hit rate</div>
    <div class="value" id="t-cache">–</div>
    <div class="sub" id="t-cache-n"></div></div>
  <div class="tile"><div class="label">Quarantined</div>
    <div class="value" id="t-quar">–</div>
    <div class="sub" id="t-dropped"></div></div>
</div>

<div class="panel">
  <h2>Queue depth — live</h2>
  <div id="spark-wrap">
    <canvas id="spark" height="72"></canvas>
    <div id="spark-tip"></div>
  </div>
</div>

<div class="panel">
  <h2>Recent quarantines</h2>
  <table id="quar-table" style="display:none">
    <thead><tr><th>Time</th><th>Job</th><th>Reason</th></tr></thead>
    <tbody id="quar-rows"></tbody>
  </table>
  <div id="empty-quar" style="color:var(--muted);font-size:12.5px">none</div>
</div>

<div class="panel">
  <h2>Event feed
    <label class="controls"><input type="checkbox" id="show-http"> show http</label>
  </h2>
  <table>
    <thead><tr><th>Time</th><th>Event</th><th>Detail</th></tr></thead>
    <tbody id="feed-rows"></tbody>
  </table>
  <div id="empty-feed">waiting for events…</div>
</div>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const FEED_CAP = 50, QUAR_CAP = 10, SPARK_CAP = 240;
const feed = [], quars = [], depths = [];
let dropped = 0, showHttp = false, statsTimer = null, statsDirty = false;

function fmtTime(ts) {
  return new Date(ts * 1000).toLocaleTimeString([], {hour12: false});
}

function stateCell(state) {
  const span = document.createElement("span");
  span.className = "state " + state;
  const dot = document.createElement("span");
  dot.className = "dot";
  span.appendChild(dot);
  span.appendChild(document.createTextNode(state));
  return span;
}

function renderFeed() {
  const rows = $("feed-rows");
  rows.textContent = "";
  let shown = 0;
  for (let i = feed.length - 1; i >= 0 && shown < FEED_CAP; i--) {
    const ev = feed[i];
    if (ev.event === "http" && !showHttp) continue;
    shown++;
    const tr = document.createElement("tr");
    const t0 = document.createElement("td");
    t0.textContent = ev.ts ? fmtTime(ev.ts) : "";
    const t1 = document.createElement("td");
    t1.className = "ev";
    t1.textContent = ev.event;
    const t2 = document.createElement("td");
    if (ev.event === "job") {
      t2.appendChild(stateCell(ev.state));
      t2.appendChild(document.createTextNode(
        " " + ev.id + (ev.source ? " (" + ev.source + ")" : "")));
    } else if (ev.event === "dropped") {
      t2.textContent = ev.count + " event(s) dropped (slow consumer)";
    } else if (ev.event === "http") {
      t2.textContent = ev.method + " " + ev.path + " → " + ev.status +
        " (" + ev.duration_ms + " ms)";
    } else {
      const detail = Object.entries(ev)
        .filter(([k]) => !["event", "ts", "seq"].includes(k))
        .map(([k, v]) => k + "=" + JSON.stringify(v)).join(" ");
      t2.textContent = detail;
    }
    tr.append(t0, t1, t2);
    rows.appendChild(tr);
  }
  $("empty-feed").style.display = shown ? "none" : "";
}

function renderQuars() {
  const rows = $("quar-rows");
  rows.textContent = "";
  for (let i = quars.length - 1; i >= 0; i--) {
    const ev = quars[i];
    const tr = document.createElement("tr");
    const cells = [fmtTime(ev.ts), ev.id, ev.failure_reason || ""];
    for (const text of cells) {
      const td = document.createElement("td");
      td.textContent = text;
      tr.appendChild(td);
    }
    rows.appendChild(tr);
  }
  $("quar-table").style.display = quars.length ? "" : "none";
  $("empty-quar").style.display = quars.length ? "none" : "";
}

function drawSpark(hover) {
  const canvas = $("spark");
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, w, h);
  const css = getComputedStyle(document.documentElement);
  // hairline baseline
  ctx.strokeStyle = css.getPropertyValue("--grid").trim();
  ctx.lineWidth = 1;
  ctx.beginPath(); ctx.moveTo(0, h - 1.5); ctx.lineTo(w, h - 1.5); ctx.stroke();
  if (depths.length < 2) return;
  const max = Math.max(1, ...depths.map((d) => d.v));
  const x = (i) => (i / (SPARK_CAP - 1)) * (w - 4) + 2;
  const y = (v) => h - 4 - (v / max) * (h - 10);
  const offset = SPARK_CAP - depths.length;
  ctx.strokeStyle = css.getPropertyValue("--series-1").trim();
  ctx.lineWidth = 2;
  ctx.lineJoin = "round";
  ctx.beginPath();
  depths.forEach((d, i) => {
    if (i === 0) ctx.moveTo(x(offset + i), y(d.v));
    else ctx.lineTo(x(offset + i), y(d.v));
  });
  ctx.stroke();
  if (hover != null) {
    const i = Math.max(0, Math.min(depths.length - 1, hover - offset));
    const d = depths[i];
    ctx.strokeStyle = css.getPropertyValue("--muted").trim();
    ctx.lineWidth = 1;
    ctx.beginPath();
    ctx.moveTo(x(offset + i), 2); ctx.lineTo(x(offset + i), h - 2); ctx.stroke();
    const tip = $("spark-tip");
    tip.style.display = "block";
    tip.style.left = Math.min(x(offset + i) + 8, w - 120) + "px";
    tip.style.top = "2px";
    tip.textContent = "depth " + d.v + " · " + fmtTime(d.t);
  } else {
    $("spark-tip").style.display = "none";
  }
}

$("spark").addEventListener("mousemove", (e) => {
  const rect = e.target.getBoundingClientRect();
  drawSpark(Math.round(((e.clientX - rect.left) / rect.width) * (SPARK_CAP - 1)));
});
$("spark").addEventListener("mouseleave", () => drawSpark(null));

function applyStats(stats) {
  const q = stats.queue, wk = stats.workers, d = stats.dispatcher;
  $("t-depth").textContent = q.depth;
  $("t-states").textContent =
    q.states.queued + " queued · " + q.states.running + " running";
  $("t-active").textContent = wk.active ? "yes" : "no";
  $("t-workers").textContent = "pool " + wk.pool_size +
    (wk.warm_pool ? (wk.warm_pool.live ? " · warm" : " · cold") : "");
  $("t-cells").textContent = wk.inflight_cells;
  $("t-batches").textContent = d.batches + " batches · " +
    d.cells_executed + " cells";
  let hits = 0, misses = 0;
  for (const c of Object.values(stats.cache.session)) {
    hits += c.hits; misses += c.misses;
  }
  $("t-cache").textContent =
    hits + misses ? Math.round((100 * hits) / (hits + misses)) + "%" : "–";
  $("t-cache-n").textContent = hits + " hits · " + misses + " misses";
  $("t-quar").textContent = q.states.quarantined;
  $("t-dropped").textContent = dropped ? dropped + " events dropped here" : "";
  $("uptime").textContent = "up " + Math.round(stats.uptime_seconds) + "s";
  depths.push({t: Date.now() / 1000, v: q.depth});
  if (depths.length > SPARK_CAP) depths.shift();
  drawSpark(null);
}

function refreshStats() {
  statsDirty = false;
  fetch("/v1/stats").then((r) => r.json()).then(applyStats).catch(() => {});
}

function scheduleStats() {
  // Debounced: a burst of pushed events costs one stats fetch.
  if (statsDirty) return;
  statsDirty = true;
  setTimeout(refreshStats, 400);
}

function onEvent(ev) {
  feed.push(ev);
  if (feed.length > FEED_CAP * 4) feed.splice(0, feed.length - FEED_CAP * 2);
  if (ev.event === "dropped") dropped += ev.count;
  if (ev.event === "job" && ev.state === "quarantined") {
    quars.push(ev);
    if (quars.length > QUAR_CAP) quars.shift();
    renderQuars();
  }
  renderFeed();
  if (ev.event !== "http") scheduleStats();
}

function connect() {
  const source = new EventSource("/v1/events");
  source.onopen = () => {
    $("conn").className = "live";
    $("conn-text").textContent = "live";
  };
  source.onerror = () => {
    $("conn").className = "";
    $("conn-text").textContent = "disconnected — retrying";
  };
  source.onmessage = (message) => {
    const ev = JSON.parse(message.data);
    if (ev.event === "hello") { applyStats(ev.stats); return; }
    onEvent(ev);
  };
}

connect();
refreshStats();
setInterval(() => { if (!statsDirty) refreshStats(); }, 5000);
window.addEventListener("resize", () => drawSpark(null));
</script>
</body>
</html>
"""
