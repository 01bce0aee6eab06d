(* durable-commit: the durability and publication layers.  One
   committer domain runs a closed loop of transfers (get+put on two
   keys, four operations) over 65,536 keys of a lazy-memo map wrapped
   in Durable_map with intent frames, under Serial_commit with
   flat-combining group commit on.  Every commit is acknowledged only
   after the redo log's fsync: real fsync on a log file in the output
   directory, no batch delay and no simulated device delay.  After the
   run the log is recovered into a fresh map, which must equal the
   in-memory map.

   One committer, not two: the redo log runs its own flusher domain,
   so a second committer would put three busy domains on a two-core
   host, and the figures would follow the OS scheduler's wake-ups
   rather than the program. *)

module P = Probe
module T = Proust_structures.Trait
module D = Proust_durable
module A = Bigarray.Array1

let keys = 65_536
let init = 1000
let domains = 1
let prefill_batch = 8192

(* Pre-generated transfers per domain, cycled: (src, dst, amount). *)
let pool = 1 lsl 16

type t = {
  config : Stm.config;
  path : string;
  log : D.Redo_log.t;
  base : (int, int) T.Map.ops;
  ops : (int, int) T.Map.ops;  (* the durable view of [base] *)
  inputs : (int, Bigarray.int_elt, Bigarray.c_layout) A.t array;
}

let inputs ~seed d =
  let st = Random.State.make [| seed; d |] in
  let a = A.create Bigarray.int Bigarray.c_layout (pool * 3) in
  for i = 0 to pool - 1 do
    let src = Random.State.int st keys in
    a.{3 * i} <- src;
    a.{(3 * i) + 1} <- (src + 1 + Random.State.int st (keys - 1)) mod keys;
    a.{(3 * i) + 2} <- 1 + Random.State.int st 100
  done;
  a

let fresh = ref 0

(* The prefill goes through the durable view too, so recovery alone
   rebuilds the whole map. *)
let setup ~seed ~dir =
  incr fresh;
  Stm.set_combining true;
  let config = { (Stm.get_default_config ()) with mode = Stm.Serial_commit } in
  let path = Filename.concat dir (Printf.sprintf "durable-%d-%d.redo" (Unix.getpid ()) !fresh) in
  D.Temp.cleanup path;
  let log = D.Redo_log.create ~path () in
  let base = P.lazy_memo () in
  let ops = D.Durable_map.ops (D.Durable_map.wrap ~fmt:D.Frame.Intent ~log base) in
  for b = 0 to (keys / prefill_batch) - 1 do
    Stm.atomically ~config (fun txn ->
        for k = b * prefill_batch to ((b + 1) * prefill_batch) - 1 do
          ignore (ops.T.Map.put txn k init)
        done)
  done;
  { config; path; log; base; ops; inputs = Array.init domains (inputs ~seed) }

let discard st =
  D.Redo_log.close st.log;
  D.Temp.cleanup st.path

let worker st (c : P.ctx) (ops : (int, int) T.Map.ops) clock =
  let a = st.inputs.(c.P.tid) in
  let config = st.config in
  let i = ref 0 in
  while not (P.stopped clock) do
    let b = 3 * (!i land (pool - 1)) in
    incr i;
    let src = a.{b} and dst = a.{b + 1} and amount = a.{b + 2} in
    P.atomically ~split_ack:true c ~cls:1 ~clock ~config ~ops:4 (fun txn ->
        let vs = P.value (ops.T.Map.get txn src) in
        let vd = P.value (ops.T.Map.get txn dst) in
        ignore (ops.T.Map.put txn src (vs - amount));
        ignore (ops.T.Map.put txn dst (vd + amount)))
  done

let run st ~seconds ~traced ~poll =
  let cs = List.init domains (P.ctx ~seconds ~traced) in
  let appends0 = D.Redo_log.appends st.log and bytes0 = D.Redo_log.bytes_appended st.log in
  let w =
    P.measure ~poll ~warmup:0.5 ~seconds
      (List.map (fun c -> worker st c (if traced then P.timed_map c st.ops else st.ops)) cs)
  in
  let appends = D.Redo_log.appends st.log - appends0 in
  let bytes = D.Redo_log.bytes_appended st.log - bytes0 in
  let wr = P.dist_of cs (fun c -> c.P.lat.(1)) in
  let rate, e2e = P.e2e ~seconds w cs (List.map (fun c -> (c.P.lat.(1), c.P.lat_at.(1))) cs) in
  let st_d = Stats.diff w.P.st0 w.P.st1 in
  let layer =
    if not traced then []
    else
      P.layer_metrics w cs
      @ [
          P.m "durable.appends" (float_of_int appends);
          P.m "durable.bytes_per_txn" (P.ratio bytes appends);
          P.m
            ~note:(Printf.sprintf "%d fsync batches" st_d.Stats.fsync_batches)
            "durable.txn_per_fsync"
            (P.ratio st_d.Stats.log_appends st_d.Stats.fsync_batches);
          P.m "durable.batch_p50" (float_of_int w.P.st1.Stats.fsync_batch_size_p50);
          P.m "durable.batch_p99" (float_of_int w.P.st1.Stats.fsync_batch_size_p99);
          P.pct "durable.ack_wait_us.p50" (P.dist_of cs (fun c -> c.P.ack_ns)) 0.5;
        ]
  in
  {
    P.attempted = Array.length wr;
    failed = 0;
    problems = [];
    rate;
    metrics =
      e2e
      @ [
          P.pct "txn.write_p50_us" wr 0.5;
          P.pct "txn.write_p99_us" wr 0.99;
        ]
      @ layer;
    ctxs = cs;
  }

let snapshot config (ops : (int, int) T.Map.ops) =
  Stm.atomically ~config (fun txn -> Array.init keys (fun k -> P.value (ops.T.Map.get txn k)))

(* Recover the log into a fresh map (timed), then compare it with the
   in-memory map key by key, and both totals with the initial one. *)
let finish st =
  let live = snapshot st.config st.base in
  D.Redo_log.close st.log;
  let t = P.now () in
  let report = D.Recovery.run st.path in
  let replayed = P.lazy_memo () in
  D.Durable_map.replay report replayed;
  let recovery_s = float_of_int (P.now () - t) /. 1e9 in
  let back = snapshot st.config replayed in
  D.Temp.cleanup st.path;
  let total a = Array.fold_left ( + ) 0 a in
  let differ = ref 0 in
  Array.iteri (fun k v -> if back.(k) <> v then incr differ) live;
  let problems =
    (if !differ > 0 then [ Printf.sprintf "%d keys differ after recovery" !differ ] else [])
    @ (if total live <> keys * init then [ "in-memory total changed" ] else [])
    @ if total back <> keys * init then [ "recovered total changed" ] else []
  in
  let records = List.length report.D.Recovery.records in
  ( problems,
    [
      P.m ~note:(Printf.sprintf "%d records" records) "durable.recovery_s" recovery_s;
      P.m "durable.replayed_records" (float_of_int records);
    ] )
