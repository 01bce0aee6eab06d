(* Measurement primitives shared by the workloads: off-heap sample
   buffers, exact percentiles, windowed throughput, the measured-window
   driver, and the per-domain probe context behind the traced run.

   Everything here sits in the benchmark, around calls into the
   library's public functions; nothing is traced inside the library. *)

module T = Proust_structures.Trait

let now = Clock.now_mono_ns

(* The registry's "lazy-memo" design point: optimistic, lazy update
   with memoized shadow copies, no cross-transaction log combining.
   Built directly: [Registry.find] instantiates every registered
   structure, which would swamp this set-up's own cost. *)
let lazy_memo () =
  Proust_structures.P_lazy_hashmap.ops (Proust_structures.P_lazy_hashmap.make ~combine:false ())

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)

module Samples = struct
  (* Off-heap chunks: recording millions of samples neither grows the
     OCaml heap the benchmark reports nor adds GC work to the run. *)
  type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let chunk_len = 16384

  type t = { mutable full : chunk list; mutable cur : chunk; mutable pos : int }

  let chunk () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk_len
  let create () = { full = []; cur = chunk (); pos = 0 }

  let add t v =
    if t.pos = chunk_len then begin
      t.full <- t.cur :: t.full;
      t.cur <- chunk ();
      t.pos <- 0
    end;
    Bigarray.Array1.unsafe_set t.cur t.pos v;
    t.pos <- t.pos + 1

  let length t = (List.length t.full * chunk_len) + t.pos

  let iter f t =
    List.iter
      (fun c ->
        for i = 0 to chunk_len - 1 do
          f (Bigarray.Array1.unsafe_get c i)
        done)
      t.full;
    for i = 0 to t.pos - 1 do
      f (Bigarray.Array1.unsafe_get t.cur i)
    done
end

let to_array t =
  let a = Array.make (Samples.length t) 0 in
  let i = ref 0 in
  Samples.iter
    (fun v ->
      a.(!i) <- v;
      incr i)
    t;
  a

(* A sorted copy of every sample in [ts]. *)
let dist (ts : Samples.t list) =
  let a = Array.concat (List.map to_array ts) in
  Array.sort Int.compare a;
  a

(* ------------------------------------------------------------------ *)
(* Metrics as reported: name, value, and a note carrying sample counts *)

type metric = { name : string; value : float; note : string }

let m ?(note = "") name value = { name; value; note }

(* Nearest rank of the [q]-quantile among [n] samples. *)
let rank n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(* The [q]-quantile of sorted [d], divided by [scale].  A percentile is
   reported only when at least ten samples lie beyond it; otherwise the
   value is 0 and the note says why. *)
let pct ?(scale = 1000.) name d q =
  let n = Array.length d in
  let rank = rank n q in
  let beyond = n - rank in
  if n > 0 && beyond >= 10 then
    m
      ~note:(Printf.sprintf "n=%d, %d beyond" n beyond)
      name
      (float_of_int d.(rank - 1) /. scale)
  else m ~note:(Printf.sprintf "n=%d, too few samples beyond" n) name 0.

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [q]-quantile of each one-second window of the run, median over
   the windows that hold at least ten samples beyond it.  [timed] pairs
   latency samples with their completion offsets from t0.  A slow
   second on a shared host moves one window, not the figure. *)
let windowed_pct ?(scale = 1000.) name ~seconds (timed : (Samples.t * Samples.t) list) q =
  let timed = List.map (fun (lat, at) -> (to_array lat, to_array at)) timed in
  let window t = if t >= 0 && t / 1_000_000_000 < seconds then t / 1_000_000_000 else -1 in
  let per = Array.make seconds [||] and fill = Array.make seconds 0 in
  List.iter (fun (_, at) -> Array.iter (fun t -> let w = window t in if w >= 0 then fill.(w) <- fill.(w) + 1) at) timed;
  Array.iteri (fun w n -> per.(w) <- Array.make n 0) fill;
  Array.fill fill 0 seconds 0;
  List.iter
    (fun (lat, at) ->
      Array.iteri
        (fun i t ->
          let w = window t in
          if w >= 0 then begin
            per.(w).(fill.(w)) <- lat.(i);
            fill.(w) <- fill.(w) + 1
          end)
        at)
    timed;
  let values = ref [] and least = ref max_int in
  Array.iter
    (fun d ->
      Array.sort Int.compare d;
      let n = Array.length d in
      let r = rank n q in
      if n - r >= 10 then begin
        values := (float_of_int d.(r - 1) /. scale) :: !values;
        least := min !least (n - r)
      end)
    per;
  match !values with
  | [] -> m ~note:"no window with enough samples" name 0.
  | vs ->
      m
        ~note:(Printf.sprintf "median of %d 1-s windows, >= %d beyond in each" (List.length vs) !least)
        name (median_float vs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A map binding; the workloads prefill every key they read. *)
let value = function Some v -> v | None -> min_int

(* ------------------------------------------------------------------ *)
(* Windowed throughput                                                 *)

(* Completions are counted per quarter-second window of the measured
   run; throughput is the median window, so a stall in one window (a
   neighbour on the host, a major GC) does not move the figure. *)
let window_ns = 250_000_000

let windows ~seconds = Array.make ((seconds * 4) + 8) 0

let note_window w ~t0 t_end =
  let i = (t_end - t0) / window_ns in
  if i >= 0 && i < Array.length w then w.(i) <- w.(i) + 1

let median_rate (ws : int array list) ~seconds =
  let full = seconds * 4 in
  let per_window =
    List.init full (fun i ->
        float_of_int (List.fold_left (fun a w -> a + w.(i)) 0 ws))
  in
  median_float per_window *. 1e9 /. float_of_int window_ns

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* The measured window                                                 *)

type clock = { t0 : int Atomic.t; stop : bool Atomic.t }

let recording c t = t >= Atomic.get c.t0
let stopped c = Atomic.get c.stop

type window = {
  peak_heap_words : int;
  st0 : Stats.snapshot;  (* at t0 *)
  st1 : Stats.snapshot;  (* after the workers joined *)
  gc0 : Gc.stat;  (* at t0 *)
  gc1 : Gc.stat;  (* after the workers joined *)
}

(* [measure ~warmup ~seconds workers] spawns one domain per worker,
   lets them warm up, then opens the measured window [t0, t0+seconds)
   by publishing [t0]; workers record only what starts inside it.  The
   calling domain sleeps in 50 ms steps, sampling the major heap and
   running [poll]. *)
let measure ?(poll = ignore) ~warmup ~seconds workers =
  let c = { t0 = Atomic.make max_int; stop = Atomic.make false } in
  let ds = List.map (fun f -> Domain.spawn (fun () -> f c)) workers in
  let peak = ref 0 in
  let wait_until t =
    while now () < t do
      peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
      poll ();
      Unix.sleepf 0.05
    done
  in
  wait_until (now () + int_of_float (warmup *. 1e9));
  let gc0 = Gc.quick_stat () in
  let st0 = Stats.read () in
  let t0 = now () in
  peak := 0;
  Atomic.set c.t0 t0;
  wait_until (t0 + (seconds * 1_000_000_000));
  Atomic.set c.stop true;
  List.iter Domain.join ds;
  poll ();
  let st1 = Stats.read () in
  { peak_heap_words = !peak; st0; st1; gc0; gc1 = Gc.quick_stat () }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* One span of the traced run: [cat] names the layer.  Spans of one
   transaction share [id], unique across domains. *)
type span = { name : string; cat : string; tid : int; id : int; ts : int; dur : int }

(* Transactions per domain whose spans are kept for the trace file;
   the aggregates below cover every traced transaction. *)
let kept_txns = 1000

(* Layers of the self-time table. *)
let layers = [| "bench"; "core"; "stm"; "durable"; "parking" |]
let l_bench = 0
let l_core = 1
let l_stm = 2
let l_durable = 3
let l_parking = 4

(* ------------------------------------------------------------------ *)
(* Per-domain probe context                                            *)

type ctx = {
  tid : int;
  traced : bool;
  lat : Samples.t array;  (* end-to-end latency by class: 0 read, 1 write *)
  lat_at : Samples.t array;  (* completion offsets from t0, paired with [lat] *)
  win : int array;
  (* traced run only *)
  get_ns : Samples.t;
  put_ns : Samples.t;
  begin_ns : Samples.t;
  commit_ns : Samples.t;
  gap_ns : Samples.t;
  body_ns : Samples.t;
  ack_ns : Samples.t;
  self_ns : int array;
  mutable txns : int;
  mutable attempts : int;
  mutable ops_run : int;
  mutable ops_committed : int;
  mutable op_ns : int;  (* op time inside the running attempt *)
  mutable on : bool;  (* the running call is traced *)
  mutable blocked : bool;  (* the running call found its channel side blocked *)
  mutable cur : int;  (* id of the running transaction *)
  mutable keep : bool;
  mutable spans : span list;
  mutable nspans : int;
}

let ctx ~seconds ~traced tid =
  {
    tid;
    traced;
    lat = [| Samples.create (); Samples.create () |];
    lat_at = [| Samples.create (); Samples.create () |];
    win = windows ~seconds;
    get_ns = Samples.create ();
    put_ns = Samples.create ();
    begin_ns = Samples.create ();
    commit_ns = Samples.create ();
    gap_ns = Samples.create ();
    body_ns = Samples.create ();
    ack_ns = Samples.create ();
    self_ns = Array.make (Array.length layers) 0;
    txns = 0;
    attempts = 0;
    ops_run = 0;
    ops_committed = 0;
    op_ns = 0;
    on = false;
    blocked = false;
    cur = 0;
    keep = false;
    spans = [];
    nspans = 0;
  }

(* Spans kept per domain for the trace file, whatever the workload. *)
let max_spans = 60_000

let span c ~name ~cat ~ts ~dur =
  if c.keep && c.nspans < max_spans then begin
    c.spans <- { name; cat; tid = c.tid; id = (c.cur lsl 4) lor c.tid; ts; dur } :: c.spans;
    c.nspans <- c.nspans + 1
  end

let self c layer ns = c.self_ns.(layer) <- c.self_ns.(layer) + ns

(* The core layer's time: each Trait ops closure, timed in place.
   Removes count with puts, as writes. *)
let timed_map c (ops : (int, int) T.Map.ops) =
  let op name samples f =
    if not c.on then f ()
    else
    let t = now () in
    let r = f () in
    let d = now () - t in
    Samples.add samples d;
    c.ops_run <- c.ops_run + 1;
    c.op_ns <- c.op_ns + d;
    self c l_core d;
    span c ~name ~cat:"core" ~ts:t ~dur:d;
    r
  in
  {
    ops with
    T.Map.get = (fun txn k -> op "get" c.get_ns (fun () -> ops.T.Map.get txn k));
    put = (fun txn k v -> op "put" c.put_ns (fun () -> ops.T.Map.put txn k v));
    remove = (fun txn k -> op "remove" c.put_ns (fun () -> ops.T.Map.remove txn k));
  }

let record c ~cls ~clock ~t_call t_ret =
  let t0 = Atomic.get clock.t0 in
  Samples.add c.lat.(cls) (t_ret - t_call);
  Samples.add c.lat_at.(cls) (t_ret - t0);
  note_window c.win ~t0 t_ret

(* [atomically c ~cls ~clock ~config body] runs one closed-loop
   transaction and records its latency, call to return with retries
   included, when it starts inside the measured window.  In the traced
   run the call is also split, from the benchmark's side of the API,
   into begin (call to first body entry), attempts (body), retry gaps
   (body exit to the next entry: abort, backoff, parking), commit (last
   body exit to return) and, with [split_ack], the durable ack (an
   [after_commit] hook to return: the group-commit fsync wait).  A gap
   after a call that found its channel side blocked is charged to
   parking. *)
let atomically ?(split_ack = false) ?(ops = 0) c ~cls ~clock ~config body =
  let t_call = now () in
  c.on <- c.traced && recording clock t_call;
  if not c.on then begin
    let r = Stm.atomically ~config body in
    let t_ret = now () in
    if recording clock t_call then record c ~cls ~clock ~t_call t_ret;
    r
  end
  else begin
    c.cur <- c.cur + 1;
    c.keep <- c.txns < kept_txns;
    c.blocked <- false;
    let tries = ref 0 and last_exit = ref t_call and acked = ref 0 in
    let r =
      Stm.atomically ~config (fun txn ->
          let t_in = now () in
          if !tries = 0 then begin
            Samples.add c.begin_ns (t_in - t_call);
            self c l_stm (t_in - t_call);
            span c ~name:"begin" ~cat:"stm" ~ts:t_call ~dur:(t_in - t_call)
          end
          else begin
            let gap = t_in - !last_exit in
            Samples.add c.gap_ns gap;
            let cat = if c.blocked then "parking" else "stm" in
            self c (if c.blocked then l_parking else l_stm) gap;
            span c ~name:"retry_gap" ~cat ~ts:!last_exit ~dur:gap
          end;
          incr tries;
          c.op_ns <- 0;
          let exit ~name =
            let t_out = now () in
            last_exit := t_out;
            Samples.add c.body_ns (t_out - t_in);
            self c l_bench (t_out - t_in - c.op_ns);
            span c ~name ~cat:"bench" ~ts:t_in ~dur:(t_out - t_in)
          in
          match body txn with
          | v ->
              exit ~name:"attempt";
              if split_ack then Stm.after_commit txn (fun () -> acked := now ());
              v
          | exception e ->
              exit ~name:"attempt(aborted)";
              raise e)
    in
    let t_ret = now () in
    let t_ack = if split_ack && !acked > 0 then !acked else t_ret in
    Samples.add c.commit_ns (t_ack - !last_exit);
    self c l_stm (t_ack - !last_exit);
    span c ~name:"commit" ~cat:"stm" ~ts:!last_exit ~dur:(t_ack - !last_exit);
    if split_ack then begin
      Samples.add c.ack_ns (t_ret - t_ack);
      self c l_durable (t_ret - t_ack);
      span c ~name:"durable_ack" ~cat:"durable" ~ts:t_ack ~dur:(t_ret - t_ack)
    end;
    span c ~name:(if cls = 0 then "read_txn" else "write_txn") ~cat:"txn" ~ts:t_call
      ~dur:(t_ret - t_call);
    c.txns <- c.txns + 1;
    c.attempts <- c.attempts + !tries;
    c.ops_committed <- c.ops_committed + ops;
    record c ~cls ~clock ~t_call t_ret;
    c.on <- false;
    r
  end

(* ------------------------------------------------------------------ *)
(* What one measured phase of a workload reports                       *)

type phase = {
  attempted : int;
  failed : int;
  problems : string list;  (* failed correctness checks *)
  rate : float;  (* the phase's txn_per_s, for the tracing overhead *)
  metrics : metric list;
  ctxs : ctx list;
}

let sum cs f = List.fold_left (fun a c -> a + f c) 0 cs
let dist_of cs f = dist (List.map f cs)

(* End-to-end metrics shared by the closed loops: median-window
   throughput, the median and the windowed p90 of the [timed] latency
   samples (microseconds), and the peak major heap sampled during the
   run.  The p90, not the p99, is the gate: on a shared two-core host
   the p99 of a waking or fsyncing workload moves by more than any
   useful bound from one run to the next; the p99s are reported among
   the per-layer metrics. *)
let e2e ~seconds (w : window) cs timed =
  let rate = median_rate (List.map (fun c -> c.win) cs) ~seconds in
  ( rate,
    [
      m ~note:(Printf.sprintf "median of %d windows" (seconds * 4)) "txn_per_s" rate;
      pct "p50_us" (dist (List.map fst timed)) 0.5;
      windowed_pct "p90_us" ~seconds timed 0.9;
      m "peak_heap_mb" (words_to_mb w.peak_heap_words);
    ] )

(* Layer metrics of a traced closed loop: the core ops closures, the
   STM call split, the STM's own counters, and GC over the window. *)
let layer_metrics (w : window) cs =
  let st = Stats.diff w.st0 w.st1 in
  let txns = sum cs (fun c -> c.txns) in
  let attempts = sum cs (fun c -> c.attempts) in
  let body = dist_of cs (fun c -> c.body_ns) in
  let body_total = Array.fold_left ( + ) 0 body in
  let gc_delta f = f w.gc1 -. f w.gc0 in
  [
    pct ~scale:1. "core.get_ns.p50" (dist_of cs (fun c -> c.get_ns)) 0.5;
    pct ~scale:1. "core.get_ns.p99" (dist_of cs (fun c -> c.get_ns)) 0.99;
    pct ~scale:1. "core.put_ns.p50" (dist_of cs (fun c -> c.put_ns)) 0.5;
    pct ~scale:1. "core.put_ns.p99" (dist_of cs (fun c -> c.put_ns)) 0.99;
    m ~note:(Printf.sprintf "%d attempts" attempts) "core.body_us_per_attempt"
      (ratio body_total attempts /. 1000.);
    m "core.ops_run_per_op_committed"
      (ratio (sum cs (fun c -> c.ops_run)) (sum cs (fun c -> c.ops_committed)));
    pct "stm.begin_us.p50" (dist_of cs (fun c -> c.begin_ns)) 0.5;
    pct "stm.commit_us.p50" (dist_of cs (fun c -> c.commit_ns)) 0.5;
    pct "stm.commit_us.p99" (dist_of cs (fun c -> c.commit_ns)) 0.99;
    pct "stm.retry_gap_us.p50" (dist_of cs (fun c -> c.gap_ns)) 0.5;
    m ~note:(Printf.sprintf "%d txns" txns) "stm.attempts_per_commit" (ratio attempts txns);
    m "stm.commit_ratio" (ratio st.Stats.commits st.Stats.starts);
    m "stm.conflicts" (float_of_int st.Stats.conflicts);
    m "stm.lock_waits" (float_of_int st.Stats.lock_waits);
    m "stm.extensions" (float_of_int st.Stats.extensions);
    m "stm.fallbacks" (float_of_int st.Stats.fallbacks);
    m "publisher.batch_mean" (ratio st.Stats.combined_commits st.Stats.combiner_elections);
    m "publisher.elections_per_txn" (ratio st.Stats.combiner_elections txns);
    m "gc.minor_words_per_txn" (gc_delta (fun g -> g.Gc.minor_words) /. float_of_int (max 1 txns));
    m "gc.promoted_words_per_txn"
      (gc_delta (fun g -> g.Gc.promoted_words) /. float_of_int (max 1 txns));
    m "gc.major_collections"
      (float_of_int (w.gc1.Gc.major_collections - w.gc0.Gc.major_collections));
  ]

(* Self time per layer over every traced call, as shares of the total. *)
let self_table cs =
  let tot = Array.make (Array.length layers) 0 in
  List.iter (fun c -> Array.iteri (fun i v -> tot.(i) <- tot.(i) + v) c.self_ns) cs;
  let all = Array.fold_left ( + ) 0 tot in
  Array.to_list (Array.mapi (fun i v -> (layers.(i), v, ratio v all *. 100.)) tot)
