"""The single-file dashboard page — stdlib-served, zero dependencies.

One self-contained HTML document (inline CSS + vanilla JS, no external
assets, no CDN) that renders ``GET /v1/metrics`` snapshots: a KPI row,
the runs table with progress meters, the Figure 11 frontier scatter and
Figure 13 utilization bars on ``<canvas>``, and a per-run drill-down
table.  It polls the metrics endpoint and — against a live ``repro
serve --dashboard`` — additionally subscribes to active runs' SSE event
streams (the existing ``/v1/runs/<id>/events`` endpoint) to refresh the
instant something happens, falling back to polling alone against
``repro dash`` — the same server with no scheduler, hence no event
streams, which its ``/healthz`` says with ``"mode": "dash"``.

Charts follow the repo's dataviz conventions: the first three slots of
the validated categorical palette (all-pairs CVD-safe in both modes)
identify apps on the scatter with a legend plus a gray "other" fold
past three; utilization is a single-hue sequential ramp; run/job states
use the reserved status palette and always pair the color with a text
label.  Light and dark palettes are both explicit (``prefers-color-
scheme``), not an automatic flip.
"""

from __future__ import annotations

__all__ = ["dashboard_page"]

_PAGE = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro dash</title>
<style>
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --other: #898781;
  --seq-150: #b7d3f6; --seq-300: #6da7ec; --seq-450: #2a78d6;
  --seq-600: #184f95;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --seq-150: #0d366b; --seq-300: #1c5cab; --seq-450: #3987e5;
    --seq-600: #86b6ef;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header {
  display: flex; align-items: baseline; gap: 12px;
  padding: 14px 20px 4px;
}
header h1 { font-size: 18px; margin: 0; font-weight: 650; }
#conn { color: var(--muted); font-size: 12px; }
main { padding: 8px 20px 28px; max-width: 1180px; margin: 0 auto; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 10px 0 16px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 132px; flex: 1;
}
.tile .k { color: var(--ink-2); font-size: 12px; }
.tile .v { font-size: 26px; font-weight: 650; margin-top: 2px; }
.tile .s { color: var(--muted); font-size: 12px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; margin-bottom: 16px;
}
.card h2 { font-size: 13px; color: var(--ink-2); margin: 0 0 8px;
  font-weight: 600; }
.charts { display: grid; grid-template-columns: 1fr 1fr; gap: 16px; }
@media (max-width: 900px) { .charts { grid-template-columns: 1fr; } }
canvas { width: 100%; height: 240px; display: block; }
table { border-collapse: collapse; width: 100%; font-variant-numeric:
  tabular-nums; }
th, td { text-align: left; padding: 5px 10px 5px 0; }
th { color: var(--muted); font-size: 12px; font-weight: 500;
  border-bottom: 1px solid var(--grid); }
td { border-bottom: 1px solid var(--grid); }
tr.sel td { background: color-mix(in srgb, var(--series-1) 8%,
  transparent); }
#runs tbody tr { cursor: pointer; }
.meter {
  height: 8px; border-radius: 4px; background: var(--grid);
  min-width: 90px; overflow: hidden;
}
.meter > i { display: block; height: 100%; border-radius: 4px;
  background: var(--seq-450); }
.st { display: inline-flex; align-items: center; gap: 6px; }
.st::before {
  content: ""; width: 8px; height: 8px; border-radius: 50%;
  background: var(--dot, var(--muted)); flex: none;
}
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin-top: 6px;
  color: var(--ink-2); font-size: 12px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
#tip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface); color: var(--ink);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 5px 9px; font-size: 12px;
  box-shadow: 0 2px 10px rgba(0, 0, 0, 0.18);
}
.empty { color: var(--muted); padding: 14px 0; }
</style>
</head>
<body>
<header>
  <h1>repro dash</h1>
  <span id="conn">connecting…</span>
</header>
<main>
  <div class="tiles" id="tiles"></div>
  <div class="card">
    <h2>Runs</h2>
    <div id="runs"></div>
  </div>
  <div class="charts">
    <div class="card">
      <h2>Best-rate frontier (meets real-time)</h2>
      <canvas id="frontier"></canvas>
      <div class="legend" id="frontier-legend"></div>
    </div>
    <div class="card">
      <h2>Mean utilization vs processor count</h2>
      <canvas id="util"></canvas>
    </div>
  </div>
  <div class="card">
    <h2 id="drill-title">Run drill-down</h2>
    <div id="drill"></div>
  </div>
</main>
<div id="tip"></div>
<script>
"use strict";
const METRICS_URL = "/v1/metrics";
const POLL_MS = 2500;
const css = (name) =>
  getComputedStyle(document.documentElement).getPropertyValue(name).trim();
const esc = (s) => String(s).replace(/[&<>"]/g, (c) =>
  ({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}[c]));

let snapshot = null;
let selectedRun = null;
let lastPoll = null;       // {t, done} for the client-side live rate
let liveRate = null;
const streams = new Map(); // run id -> EventSource

// -- status palette: color + label together, never color alone --------
const RUN_STATUS = {
  succeeded: ["--good", "succeeded"], failed: ["--critical", "failed"],
  cancelled: ["--serious", "cancelled"],
};
const RUN_STATE = {
  accepted: ["--muted", "accepted"], queued: ["--warning", "queued"],
  executing: ["--series-1", "executing"],
  draining: ["--serious", "draining"], unknown: ["--muted", "recorded"],
};
const JOB_STATE = {
  queued: ["--warning", "queued"], running: ["--series-1", "running"],
  retrying: ["--serious", "retrying"], cached: ["--good", "cached"],
  done: ["--good", "done"], failed: ["--critical", "failed"],
  cancelled: ["--serious", "cancelled"],
  quarantined: ["--critical", "quarantined"],
};
function badge(map, key) {
  const [color, label] = map[key] || ["--muted", key || "?"];
  return `<span class="st" style="--dot: var(${color})">${esc(label)}`
    + `</span>`;
}

// -- KPI tiles --------------------------------------------------------
function tile(k, v, s) {
  return `<div class="tile"><div class="k">${k}</div>` +
    `<div class="v">${v}</div><div class="s">${s || "&nbsp;"}</div></div>`;
}
function renderTiles(t) {
  const ratio = t.cache_hit_ratio;
  const rate = liveRate != null ? liveRate.toFixed(2) + " jobs/s"
    : "&mdash;";
  document.getElementById("tiles").innerHTML =
    tile("Runs", t.runs, `${t.active} active`) +
    tile("Jobs", `${t.done}<span style="color: var(--muted); ` +
      `font-size: 16px">/${t.jobs}</span>`,
      `${t.succeeded} ok · ${t.failed} failed`) +
    tile("Cache hit ratio",
      ratio == null ? "&mdash;" : (100 * ratio).toFixed(0) + "%",
      `${t.cache_hits} hit(s)`) +
    tile("Throughput", rate, `${t.events} event(s)`) +
    tile("Retries", t.retries, `${t.quarantined} quarantined`);
}

// -- runs table -------------------------------------------------------
function renderRuns(runs) {
  const el = document.getElementById("runs");
  if (!runs.length) {
    el.innerHTML = '<div class="empty">No runs yet — submit one with ' +
      '<code>repro submit</code>.</div>';
    return;
  }
  const rows = runs.map((r) => {
    const pct = r.total > 0 ? (100 * r.done / r.total) : 0;
    const stat = r.status ? badge(RUN_STATUS, r.status)
      : badge(RUN_STATE, r.state);
    const rate = r.jobs_per_s != null ? r.jobs_per_s.toFixed(2) : "–";
    const sel = r.run === selectedRun ? ' class="sel"' : "";
    return `<tr data-run="${esc(r.run)}"${sel}>` +
      `<td><code>${esc(r.run)}</code></td><td>${esc(r.name)}</td>` +
      `<td>${stat}</td>` +
      `<td><div class="meter"><i style="width: ${pct}%"></i></div></td>` +
      `<td>${r.done}/${r.total}</td><td>${r.cache_hits}</td>` +
      `<td>${r.retries}</td><td>${rate}</td></tr>`;
  }).join("");
  el.innerHTML = "<table><thead><tr><th>run</th><th>name</th>" +
    "<th>status</th><th>progress</th><th>jobs</th><th>cached</th>" +
    "<th>retries</th><th>jobs/s</th></tr></thead><tbody>" + rows +
    "</tbody></table>";
  el.querySelectorAll("tbody tr").forEach((tr) => {
    tr.addEventListener("click", () => {
      selectedRun = tr.dataset.run;
      render();
    });
  });
}

// -- canvas plumbing --------------------------------------------------
function setupCanvas(canvas) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr;
  canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.setTransform(dpr, 0, 0, dpr, 0, 0);
  ctx.clearRect(0, 0, w, h);
  return {ctx, w, h};
}
function axes(ctx, area, xTicks, yTicks, fmtX, fmtY) {
  ctx.strokeStyle = css("--grid");
  ctx.fillStyle = css("--muted");
  ctx.font = "11px system-ui, sans-serif";
  ctx.lineWidth = 1;
  yTicks.forEach(({v, y}) => {
    ctx.beginPath();
    ctx.moveTo(area.x0, y);
    ctx.lineTo(area.x1, y);
    ctx.stroke();
    ctx.textAlign = "right";
    ctx.textBaseline = "middle";
    ctx.fillText(fmtY(v), area.x0 - 6, y);
  });
  xTicks.forEach(({v, x}) => {
    ctx.textAlign = "center";
    ctx.textBaseline = "top";
    ctx.fillText(fmtX(v), x, area.y1 + 6);
  });
  ctx.strokeStyle = css("--axis");
  ctx.beginPath();
  ctx.moveTo(area.x0, area.y1);
  ctx.lineTo(area.x1, area.y1);
  ctx.stroke();
}
function niceTicks(max, count) {
  if (!(max > 0)) return [1];
  const step = Math.pow(10, Math.floor(Math.log10(max / count)));
  const err = max / count / step;
  const mult = err >= 5 ? 10 : err >= 2 ? 5 : err >= 1 ? 2 : 1;
  const s = step * mult;
  const out = [];
  for (let v = 0; v <= max + 1e-9; v += s) out.push(v);
  return out;
}

const tipEl = document.getElementById("tip");
function hover(canvas, targets) {
  canvas.onmousemove = (ev) => {
    const rect = canvas.getBoundingClientRect();
    const mx = ev.clientX - rect.left, my = ev.clientY - rect.top;
    let best = null, bestD = 18 * 18;  // hit target bigger than mark
    targets.forEach((t) => {
      const d = (t.x - mx) * (t.x - mx) + (t.y - my) * (t.y - my);
      if (d < bestD) { best = t; bestD = d; }
    });
    if (best) {
      tipEl.innerHTML = best.text;
      tipEl.style.display = "block";
      tipEl.style.left = (ev.clientX + 12) + "px";
      tipEl.style.top = (ev.clientY + 12) + "px";
    } else tipEl.style.display = "none";
  };
  canvas.onmouseleave = () => { tipEl.style.display = "none"; };
}

// -- frontier scatter: categorical per app, capped at three -----------
function renderFrontier(points) {
  const canvas = document.getElementById("frontier");
  const {ctx, w, h} = setupCanvas(canvas);
  const legend = document.getElementById("frontier-legend");
  if (!points.length) {
    ctx.fillStyle = css("--muted");
    ctx.font = "12px system-ui, sans-serif";
    ctx.fillText("no meeting points yet", 12, 24);
    legend.innerHTML = "";
    hover(canvas, []);
    return;
  }
  const apps = [...new Set(points.map((p) => p.app))].sort();
  const slots = ["--series-1", "--series-2", "--series-3"];
  const colorOf = (app) => {
    const i = apps.indexOf(app);
    return css(i < slots.length ? slots[i] : "--other");
  };
  const area = {x0: 46, x1: w - 10, y0: 12, y1: h - 26};
  const maxX = Math.max(...points.map((p) => p.processor_count)) * 1.08;
  const maxY = Math.max(...points.map((p) => p.rate_hz)) * 1.12;
  const X = (v) => area.x0 + (v / maxX) * (area.x1 - area.x0);
  const Y = (v) => area.y1 - (v / maxY) * (area.y1 - area.y0);
  axes(ctx, area,
    niceTicks(maxX, 6).map((v) => ({v, x: X(v)})),
    niceTicks(maxY, 4).map((v) => ({v, y: Y(v)})),
    (v) => v.toFixed(0), (v) => v.toFixed(0));
  const targets = [];
  const surface = css("--surface");
  points.forEach((p) => {
    const x = X(p.processor_count), y = Y(p.rate_hz);
    ctx.beginPath();                       // 2px surface ring on marks
    ctx.arc(x, y, 6, 0, 2 * Math.PI);
    ctx.fillStyle = surface;
    ctx.fill();
    ctx.beginPath();
    ctx.arc(x, y, 4.5, 0, 2 * Math.PI);
    ctx.fillStyle = colorOf(p.app);
    ctx.fill();
    targets.push({x, y, text: `<b>${esc(p.app)}</b> · ` +
      `${esc(p.label)}<br>${p.processor_count} PEs · ` +
      `${p.rate_hz.toFixed(1)} Hz`});
  });
  hover(canvas, targets);
  legend.innerHTML = apps.map((app, i) => {
    const color = i < slots.length ? `var(${slots[i]})` : "var(--other)";
    const name = i < slots.length ? esc(app) : esc(app) + " (other)";
    return `<span><span class="sw" style="background: ${color}"></span>` +
      `${name}</span>`;
  }).join("");
}

// -- utilization bars: one sequential hue -----------------------------
function renderUtil(rows) {
  const canvas = document.getElementById("util");
  const {ctx, w, h} = setupCanvas(canvas);
  if (!rows.length) {
    ctx.fillStyle = css("--muted");
    ctx.font = "12px system-ui, sans-serif";
    ctx.fillText("no results yet", 12, 24);
    hover(canvas, []);
    return;
  }
  const area = {x0: 46, x1: w - 10, y0: 12, y1: h - 26};
  const Y = (v) => area.y1 - v * (area.y1 - area.y0);
  axes(ctx, area, [],
    [0, 0.25, 0.5, 0.75, 1].map((v) => ({v, y: Y(v)})),
    (v) => v, (v) => (100 * v).toFixed(0) + "%");
  const n = rows.length;
  const span = (area.x1 - area.x0) / n;
  const bw = Math.min(44, Math.max(8, span - 2));  // 2px surface gap
  const targets = [];
  rows.forEach((r, i) => {
    const x = area.x0 + span * i + (span - bw) / 2;
    const y = Y(r.mean_utilization);
    ctx.fillStyle = css("--seq-450");
    ctx.beginPath();                // rounded data end, flat baseline
    ctx.roundRect(x, y, bw, area.y1 - y, [4, 4, 0, 0]);
    ctx.fill();
    ctx.fillStyle = css("--muted");
    ctx.font = "11px system-ui, sans-serif";
    ctx.textAlign = "center";
    ctx.textBaseline = "top";
    ctx.fillText(String(r.processor_count), x + bw / 2, area.y1 + 6);
    targets.push({x: x + bw / 2, y,
      text: `<b>${r.processor_count} PEs</b><br>` +
        `${(100 * r.mean_utilization).toFixed(1)}% mean over ` +
        `${r.points} point(s)`});
  });
  hover(canvas, targets);
}

// -- per-run drill-down -----------------------------------------------
function heatCell(u) {
  if (u == null) return "<td>–</td>";
  const steps = ["--seq-150", "--seq-300", "--seq-450", "--seq-600"];
  const step = steps[Math.min(3, Math.floor(u * 4))];
  return `<td><span class="sw" style="background: var(${step})"></span>` +
    `${(100 * u).toFixed(0)}%</td>`;
}
function renderDrill(runs) {
  const el = document.getElementById("drill");
  const title = document.getElementById("drill-title");
  const run = runs.find((r) => r.run === selectedRun) || runs[0];
  if (!run) {
    title.textContent = "Run drill-down";
    el.innerHTML = '<div class="empty">No run selected.</div>';
    return;
  }
  selectedRun = run.run;
  title.textContent = `Run drill-down — ${run.run} (${run.name})`;
  const byLabel = new Map(run.drilldown.map((d) => [d.label, d]));
  const labels = Object.keys(run.jobs);
  if (!labels.length) {
    el.innerHTML = '<div class="empty">No job events yet.</div>';
    return;
  }
  const rows = labels.map((label) => {
    const d = byLabel.get(label);
    const state = badge(JOB_STATE, run.jobs[label]);
    if (!d || d.kind !== "result") {
      const why = d && d.failure
        ? esc(`${d.failure.kind}: ${d.failure.message}`) : "";
      return `<tr><td>${esc(label)}</td><td>${state}</td>` +
        `<td colspan="4" style="color: var(--muted)">${why}</td>` +
        `<td>–</td></tr>`;
    }
    const meets = d.meets
      ? `<span class="st" style="--dot: var(--good)">meets</span>`
      : `<span class="st" style="--dot: var(--critical)">misses</span>`;
    const bound = d.critical_path ? esc(d.critical_path.bound) : "–";
    const worst = d.noc && d.noc.worst_link
      ? d.noc.worst_link.utilization : null;
    return `<tr><td>${esc(label)}${d.cache_hit ? " ⤺" : ""}</td>` +
      `<td>${state}</td><td>${d.processor_count}</td>` +
      `<td>${d.rate_hz.toFixed(1)}</td>` +
      `<td>${(100 * d.avg_utilization).toFixed(1)}%</td>` +
      `<td>${meets} · ${bound}</td>${heatCell(worst)}</tr>`;
  }).join("");
  el.innerHTML = "<table><thead><tr><th>job</th><th>state</th>" +
    "<th>PEs</th><th>rate Hz</th><th>util</th>" +
    "<th>verdict · bound</th><th>worst link</th></tr></thead><tbody>" +
    rows + "</tbody></table>";
}

// -- refresh loop: poll + SSE nudges ----------------------------------
function render() {
  if (!snapshot) return;
  renderTiles(snapshot.totals);
  renderRuns(snapshot.runs);
  renderFrontier(snapshot.frontier);
  renderUtil(snapshot.utilization_by_processors);
  renderDrill(snapshot.runs);
}
async function refresh() {
  try {
    const res = await fetch(METRICS_URL, {cache: "no-store"});
    if (!res.ok) throw new Error("HTTP " + res.status);
    snapshot = await res.json();
    const now = performance.now();
    if (lastPoll && snapshot.totals.done > lastPoll.done) {
      liveRate = (snapshot.totals.done - lastPoll.done) /
        ((now - lastPoll.t) / 1000);
    } else if (!snapshot.totals.active) {
      liveRate = null;
    }
    lastPoll = {t: now, done: snapshot.totals.done};
    document.getElementById("conn").textContent =
      `live · ${snapshot.totals.events} events`;
    syncStreams();
    render();
  } catch (err) {
    document.getElementById("conn").textContent =
      "disconnected (" + err.message + ")";
  }
}
let nudge = null;
function onStreamEvent() {
  if (nudge) return;  // debounce bursts into one refresh
  nudge = setTimeout(() => { nudge = null; refresh(); }, 200);
}
let streamsAvailable = null;
async function detectStreams() {
  try {
    const res = await fetch("/healthz", {cache: "no-store"});
    const health = await res.json();
    // The live service reports its queue; standalone `repro dash`
    // reports mode "dash" and has no event streams to subscribe to.
    streamsAvailable = health.mode !== "dash";
  } catch (err) {
    streamsAvailable = false;
  }
}
function syncStreams() {
  if (!streamsAvailable || !snapshot || !window.EventSource) return;
  const active = new Set(snapshot.runs
    .filter((r) => r.state !== "terminal" && r.state !== "unknown")
    .map((r) => r.run));
  for (const [id, es] of streams) {
    if (!active.has(id)) { es.close(); streams.delete(id); }
  }
  for (const id of active) {
    if (streams.has(id)) continue;
    const es = new EventSource(`/v1/runs/${id}/events`);
    es.onmessage = onStreamEvent;
    streams.set(id, es);
  }
}
window.addEventListener("resize", render);
document.addEventListener("visibilitychange", () => {
  if (!document.hidden) refresh();
});
detectStreams().then(refresh);
setInterval(() => { if (!document.hidden) refresh(); }, POLL_MS);
</script>
</body>
</html>
"""


def dashboard_page() -> str:
    """The dashboard HTML document, ready to serve as ``text/html``."""
    return _PAGE
