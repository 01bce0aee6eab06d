(* Benchmark harness: regenerates every evaluation artifact of the
   paper (see DESIGN.md's per-experiment index).

     main.exe [COMMAND] [--json FILE] [--trace FILE]
     main.exe sweep --impl a,b [-u U] [-o O] [--json FILE] [--trace FILE]

   The commands, and which of them `all` (the default) runs, are the
   [commands] table at the bottom of this file; an unknown command
   prints them.  `sweep` benchmarks arbitrary registry entries at one
   (u, o) point across PROUST_THREADS.

   --json writes every measured cell as a "proust-bench/v1" report
   (and enables the metrics layer, so cells carry latency
   percentiles); --trace enables tracing and writes a Chrome
   trace_event file loadable in Perfetto.

   Environment knobs (defaults tuned for a small container; the paper
   ran 1M ops on 40 vCPUs); a malformed value exits with an error
   naming the variable:
     PROUST_OPS      total operations per cell        (default 20000)
     PROUST_THREADS  comma-separated thread counts    (default 1,2,4,8)
     PROUST_TRIALS   measured trials per cell         (default 2)
     PROUST_MODE     default STM mode (Stm.Mode.names)
     PROUST_QUICK    =1 shrinks the grids for smoke runs
     PROUST_DOMAINS  base domain count for the overload sweep
     PROUST_DEADLINE_US / PROUST_MAX_ATTEMPTS  per-op QoS bounds *)

module W = Proust_workload
module S = Proust_structures
module B = Proust_baselines
module V = Proust_verify
module Obs = Proust_obs

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* Every numeric knob, whether a flag or an environment variable,
   parses through here, so a typo stops the run with the knob's name
   instead of a bare [Failure "int_of_string"] or a silent default. *)
let parse ~what ~expected conv s =
  match conv s with
  | Some v -> v
  | None -> die "%s: expected %s, got %S" what expected s

let int_list s =
  List.fold_right
    (fun x acc ->
      match (int_of_string_opt (String.trim x), acc) with
      | Some v, Some l -> Some (v :: l)
      | _ -> None)
    (String.split_on_char ',' s) (Some [])

let knob ~expected conv lookup name default =
  match lookup name with
  | None -> default
  | Some s -> parse ~what:name ~expected conv s

let env_int = knob ~expected:"an integer" int_of_string_opt Sys.getenv_opt
let env_float = knob ~expected:"a number" float_of_string_opt Sys.getenv_opt

let env_int_list =
  knob ~expected:"a comma-separated list of integers" int_list Sys.getenv_opt

(* The first bare argument is the command (default "all"); the value
   flags may appear anywhere around it, and anything else is an
   error rather than silently ignored. *)
let value_flags = [ "--json"; "--trace"; "--impl"; "-u"; "-o" ]

let command, flags =
  let rec go cmd flags = function
    | f :: v :: rest when List.mem f value_flags -> go cmd ((f, v) :: flags) rest
    | [ f ] when List.mem f value_flags -> die "%s: missing value" f
    | a :: _ when String.starts_with ~prefix:"-" a ->
        die "unknown option %s" a
    | a :: rest when cmd = None -> go (Some a) flags rest
    | a :: _ -> die "unexpected argument %s" a
    | [] -> (Option.value cmd ~default:"all", flags)
  in
  go None [] (List.tl (Array.to_list Sys.argv))

let flag name = List.assoc_opt name flags

let quick = Sys.getenv_opt "PROUST_QUICK" = Some "1"
let total_ops = env_int "PROUST_OPS" (if quick then 4_000 else 20_000)

let threads_list =
  env_int_list "PROUST_THREADS" (if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ])

let trials = env_int "PROUST_TRIALS" 2
let u_list = if quick then [ 0.0; 1.0 ] else [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
let o_list = if quick then [ 1; 16 ] else [ 1; 2; 16; 256 ]

let spec ~u ~o =
  {
    W.Workload.key_range = 1024;
    write_fraction = u;
    ops_per_txn = o;
    total_ops;
  }

let json_file = flag "--json"
let trace_file = flag "--trace"
let cells : Obs.Json.t list ref = ref []

(* Under --json, a cell is retained for the report written at exit. *)
let emit cell = if json_file <> None then cells := cell :: !cells

(* Every Runner-measured cell flows through here: printed as a table
   row and emitted as a JSON cell. *)
let record ~name (r : W.Runner.result) =
  W.Report.row ~name r;
  emit (W.Report.json_cell ~name r)

let run_cell (e : W.Registry.entry) ~u ~o ~threads =
  let r = W.Runner.run_entry ~trials ~warmup:1 ~threads ~spec:(spec ~u ~o) e in
  record ~name:e.W.Registry.name r

(* A map variant outside the registry (an ablation point), labelled
   [name]. *)
let run_map ?config ?dist ~name ~spec ~threads make =
  record ~name
    (W.Runner.run ?config ?dist ~label:name ~trials ~warmup:1 ~threads ~spec
       make)

(* The contention ablations skip t = 1. *)
let contended = List.filter (fun t -> t > 1) threads_list

(* ------------------------------------------------------------------ *)

let fig1 () =
  W.Report.section "FIG1: the Proust design space (Figure 1)";
  Proust_core.Proust.pp_design_space Format.std_formatter ();
  (* Back the static table with the machine-checked conflict
     abstractions (Definition 3.1 / Appendix E). *)
  let counter_model = V.Adt_model.counter ~bound:6 in
  (match V.Ca_check.check counter_model (V.Ca_spec.counter ()) with
  | None -> print_endline "counter conflict abstraction: verified (Def 3.1)"
  | Some c ->
      print_endline
        ("counter conflict abstraction: FAILED "
        ^ V.Ca_check.show_counterexample counter_model c));
  match V.Ca_encode.check_counter () with
  | V.Ca_encode.Correct ->
      print_endline "counter conflict abstraction: verified (SAT, Appendix E)"
  | V.Ca_encode.Counterexample { description; _ } ->
      print_endline ("counter SAT check FAILED: " ^ description)

let fig4 () =
  W.Report.section
    (Printf.sprintf
       "FIG4: map throughput, %d ops, key range 1024 (paper: 1M ops, 40 vCPUs)"
       total_ops);
  W.Report.header ();
  let impls = W.Registry.maps () in
  List.iter
    (fun u ->
      List.iter
        (fun o ->
          List.iter
            (fun threads ->
              List.iter
                (fun (impl : W.Registry.entry) ->
                  (* §7: pessimistic runs only at o = 1 (livelock under
                     long transactions). *)
                  if (not impl.W.Registry.meta.S.Trait.pessimistic) || o = 1
                  then run_cell impl ~u ~o ~threads)
                impls)
            threads_list)
        o_list)
    u_list

let fig4_memo () =
  W.Report.section
    "FIG4 (bottom): memoizing shadow copies, log combining on/off";
  W.Report.header ();
  let variants =
    List.filter_map W.Registry.find [ "lazy-memo"; "lazy-memo-combine" ]
  in
  List.iter
    (fun o ->
      List.iter
        (fun u ->
          List.iter
            (fun threads ->
              List.iter (fun impl -> run_cell impl ~u ~o ~threads) variants)
            threads_list)
        (if quick then [ 0.5 ] else [ 0.25; 0.5; 1.0 ]))
    (if quick then [ 16 ] else [ 16; 64; 256 ])

let ablation_m () =
  W.Report.section
    "ABL-M: conflict-abstraction region size M (striping width)";
  W.Report.header ();
  let u = 0.5 and o = 16 in
  List.iter
    (fun slots ->
      List.iter
        (fun threads ->
          run_map
            ~name:(Printf.sprintf "lazy-memo/M=%d" slots)
            ~spec:(spec ~u ~o) ~threads
            (fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~slots ())))
        contended)
    [ 1; 16; 64; 256; 1024; 4096 ]

let ablation_cm () =
  W.Report.section "ABL-CM: contention managers under high contention";
  W.Report.header ();
  let base = Stm.get_default_config () in
  List.iter
    (fun (cm : Proust_stm.Contention.t) ->
      List.iter
        (fun threads ->
          let config = Some { base with Stm.cm } in
          let make () = B.Predication_map.ops (B.Predication_map.make ()) in
          let sp = { (spec ~u:1.0 ~o:4) with W.Workload.key_range = 64 } in
          run_map ?config
            ~name:(Printf.sprintf "predication/%s" cm.Proust_stm.Contention.name)
            ~spec:sp ~threads make)
        contended)
    (Proust_stm.Contention.all ())

let ablation_mode () =
  W.Report.section "ABL-MODE: STM conflict-detection mode x Proust variant";
  W.Report.header ();
  let base = Stm.get_default_config () in
  let modes = Stm.Mode.all in
  List.iter
    (fun mode ->
      let config = Some { base with Stm.mode } in
      let entries =
        [
          ( Printf.sprintf "lazy-memo/%s" (Stm.mode_name mode),
            fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()) );
          ( Printf.sprintf "predication/%s" (Stm.mode_name mode),
            fun () -> B.Predication_map.ops (B.Predication_map.make ()) );
        ]
        @
        (* eager updates are unsound under a fully lazy STM (Figure 1's
           empty quarter) — skip those cells. *)
        (if not (S.Trait.mode_ok S.Trait.Encounter_time mode) then []
         else
           [
             ( Printf.sprintf "eager-opt/%s" (Stm.mode_name mode),
               fun () -> S.P_hashmap.ops (S.P_hashmap.make ()) );
           ])
      in
      List.iter
        (fun (name, make) ->
          List.iter
            (fun threads ->
              run_map ?config ~name ~spec:(spec ~u:0.5 ~o:16) ~threads make)
            contended)
        entries)
    modes

(* ------------------------------------------------------------------ *)
(* MVCC: read-mostly throughput, Multi_version snapshots vs the TL2
   lazy baseline.

   Each worker flips a read/write coin per operation: a read scans 8
   random tvars in one transaction, a write increments 4.  Under
   [multi-version] the read side goes through [Stm.read_only] — the
   abort-free snapshot path — while under [tl2-lazy] it is an ordinary
   update-less transaction that validates (and aborts) like any other.
   The JSON cells carry both abort counters so CI can gate on
   (a) zero [ro_aborts] and (b) MVCC >= TL2 throughput at 90%+
   reads. *)
let mvcc_bench () =
  W.Report.section
    "MVCC: read-ratio sweep, multi-version snapshots vs tl2-lazy";
  Printf.printf "%-16s %5s %4s %10s %12s %8s %9s %9s\n" "impl" "read%" "t"
    "mean(ms)" "ops/s" "aborts" "ro_commit" "ro_abort";
  Printf.printf "%s\n" (String.make 80 '-');
  let key_range = 256 in
  (* Read transactions scan 32 tvars: the snapshot path pays a fixed
     registration cost per transaction, while TL2 pays per read
     (read-log append + commit-time validation) — a scan this size is
     the design point where abort-free snapshots earn their keep. *)
  let reads_per_txn = 32 and writes_per_txn = 4 in
  let impls =
    [
      ("tl2-lazy", Stm.Lazy_lazy, false);
      ("multi-version", Stm.Multi_version, true);
    ]
  in
  (* Stats snapshots are taken per trial window and summed per impl:
     the trials below interleave the two impls, so a single
     before/after diff would mix their counters.  Gauge fields carry
     readings, not deltas, so they take the max instead of a sum. *)
  let gauge_fields =
    [
      "fsync_batch_size_p50";
      "fsync_batch_size_p99";
      "wait_list_max";
      "version_chain_max";
    ]
  in
  let combine_stats acc st =
    match acc with
    | [] -> st
    | _ ->
        List.map2
          (fun (k, va) (_, vb) ->
            (k, if List.mem k gauge_fields then max va vb else va + vb))
          acc st
  in
  List.iter
    (fun read_pct ->
      List.iter
        (fun workers ->
          let tvs = Array.init key_range (fun _ -> Tvar.make 0) in
          let per = max 500 (total_ops / workers) in
          let run_once ~config ~ro_reads () =
            1000.0
            *. W.Runner.timed ~threads:workers (fun i ->
                   let rng = Random.State.make [| 0x3c5; i |] in
                   let read_scan txn =
                     let acc = ref 0 in
                     for _ = 1 to reads_per_txn do
                       acc :=
                         !acc
                         + Stm.read txn tvs.(Random.State.int rng key_range)
                     done;
                     !acc
                   in
                   for _ = 1 to per do
                     if Random.State.float rng 1.0 < read_pct then
                       if ro_reads then ignore (Stm.read_only ~config read_scan)
                       else ignore (Stm.atomically ~config read_scan)
                     else
                       Stm.atomically ~config (fun txn ->
                           for _ = 1 to writes_per_txn do
                             let tv = tvs.(Random.State.int rng key_range) in
                             Stm.write txn tv (Stm.read txn tv + 1)
                           done)
                   done)
          in
          (* One warmup per impl, then [trials] measured runs that
             ALTERNATE between the two impls; the cell reports the best
             run (Runner reports the mean).  The containers this runs
             in are noisy on minute scales: running all of one impl's
             trials before the other's would fold that drift into the
             comparison, and the best run is the least disturbed by
             it. *)
          let rows =
            List.map
              (fun (impl, mode, ro_reads) ->
                let config = { (Stm.get_default_config ()) with Stm.mode } in
                ignore (run_once ~config ~ro_reads ());
                (impl, mode, ro_reads, config, ref infinity, ref []))
              impls
          in
          for _ = 1 to trials do
            List.iter
              (fun (_, _, ro_reads, config, best, acc) ->
                let before = Stats.read () in
                let dt = run_once ~config ~ro_reads () in
                let st = Stats.diff before (Stats.read ()) in
                best := Float.min !best dt;
                acc := combine_stats !acc (Stats.to_assoc st))
              rows
          done;
          List.iter
            (fun (impl, mode, _, _, best, acc) ->
              let dt_ms = !best in
              let stat k = try List.assoc k !acc with Not_found -> 0 in
              let total = workers * per in
              let ops_per_s = float_of_int total /. dt_ms *. 1000.0 in
              let name =
                Printf.sprintf "%s/r%.0f" impl (read_pct *. 100.0)
              in
              Printf.printf "%-16s %4.0f%% %4d %10.2f %12.0f %8d %9d %9d\n%!"
                name (read_pct *. 100.0) workers dt_ms ops_per_s
                (stat "aborts") (stat "ro_commits") (stat "ro_aborts");
              emit
                (Obs.Json.Obj
                   [
                     ("kind", Obs.Json.String "mvcc");
                     ("impl", Obs.Json.String impl);
                     ("mode", Obs.Json.String (Stm.mode_name mode));
                     ("read_pct", Obs.Json.Float (read_pct *. 100.0));
                     ("threads", Obs.Json.Int workers);
                     ("key_range", Obs.Json.Int key_range);
                     ("reads_per_txn", Obs.Json.Int reads_per_txn);
                     ("writes_per_txn", Obs.Json.Int writes_per_txn);
                     ("ops", Obs.Json.Int total);
                     ("mean_ms", Obs.Json.Float dt_ms);
                     ("ops_per_s", Obs.Json.Float ops_per_s);
                     ("aborts", Obs.Json.Int (stat "aborts"));
                     ("ro_commits", Obs.Json.Int (stat "ro_commits"));
                     ("ro_aborts", Obs.Json.Int (stat "ro_aborts"));
                     ("versions_gced", Obs.Json.Int (stat "versions_gced"));
                     ("stats", W.Report.stats_json !acc);
                   ]))
            rows)
        contended)
    [ 0.5; 0.9; 0.99 ]

(* Every registry entry of one kind at u=0.5, o=1, half the ops. *)
let registry_bench title entries =
  W.Report.section title;
  W.Report.header ();
  let sp = { (spec ~u:0.5 ~o:1) with W.Workload.total_ops = max 1_000 (total_ops / 2) } in
  List.iter
    (fun (e : W.Registry.entry) ->
      List.iter
        (fun threads ->
          let r = W.Runner.run_entry ~trials ~warmup:1 ~threads ~spec:sp e in
          record ~name:e.W.Registry.name r)
        threads_list)
    entries

let pqueue_bench () =
  registry_bench "PQ-BENCH: priority queue, eager vs pessimistic vs lazy"
    (W.Registry.pqueues ())

let queue_bench () =
  registry_bench "FIFO-BENCH: queue wrappers across the design space"
    (W.Registry.queues ())

let ablation_zipf () =
  W.Report.section
    "ABL-ZIPF: hot-key skew (Zipf 0.99) vs uniform keys, u=0.5 o=16";
  W.Report.header ();
  let entries =
    [
      ("stm-map", fun () -> B.Stm_hashmap.ops (B.Stm_hashmap.make ()));
      ("predication", fun () -> B.Predication_map.ops (B.Predication_map.make ()));
      ("lazy-memo", fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()));
    ]
  in
  List.iter
    (fun (dist_name, dist) ->
      List.iter
        (fun (name, make) ->
          List.iter
            (fun threads ->
              run_map ~dist
                ~name:(Printf.sprintf "%s/%s" name dist_name)
                ~spec:(spec ~u:0.5 ~o:16) ~threads make)
            contended)
        entries)
    [ ("uniform", W.Workload.Uniform); ("zipf99", W.Workload.Zipf 0.99) ]

let ablation_combine () =
  W.Report.section
    "ABL-COMBINE: S9 log-combining extensions (undo logs, snapshot \
     replays); small key range to force aborts";
  W.Report.header ();
  let entries =
    [
      ( "eager/undo-per-op",
        Some (W.Registry.eager_mode ()),
        fun () -> S.P_hashmap.ops (S.P_hashmap.make ~combine_undo:false ()) );
      ( "eager/undo-combined",
        Some (W.Registry.eager_mode ()),
        fun () -> S.P_hashmap.ops (S.P_hashmap.make ~combine_undo:true ()) );
      ( "lazy-snap/replay",
        None,
        fun () -> S.P_lazy_triemap.ops (S.P_lazy_triemap.make ~combine:false ())
      );
      ( "lazy-snap/root-cas",
        None,
        fun () -> S.P_lazy_triemap.ops (S.P_lazy_triemap.make ~combine:true ())
      );
    ]
  in
  List.iter
    (fun (name, config, make) ->
      List.iter
        (fun threads ->
          let sp = { (spec ~u:0.75 ~o:64) with W.Workload.key_range = 128 } in
          run_map ?config ~name ~spec:sp ~threads make)
        contended)
    entries

let structures_bench () =
  W.Report.section "STRUCT-BENCH: fifo / stack / ordered-map wrappers";
  Printf.printf "%-22s %4s %10s %12s %9s %9s\n" "impl" "t" "mean(ms)" "ops/s"
    "commits" "aborts";
  Printf.printf "%s\n" (String.make 72 '-');
  let total = max 1_000 (total_ops / 2) in
  let bench : type q.
      string -> ?config:Stm.config -> (unit -> q) -> (q -> Stm.txn -> int -> unit) -> unit =
   fun name ?config make_q step ->
    List.iter
      (fun threads ->
        let q = make_q () in
        let per = total / threads in
        let before = Stats.read () in
        let dt =
          1000.0
          *. W.Runner.timed ~threads (fun _ ->
                 for j = 1 to per do
                   Stm.atomically ?config (fun txn -> step q txn j)
                 done)
        in
        let st = Stats.diff before (Stats.read ()) in
        Printf.printf "%-22s %4d %10.2f %12.0f %9d %9d\n%!" name threads dt
          (float_of_int total /. dt *. 1000.0)
          st.Stats.commits st.Stats.aborts)
      threads_list
  in
  let eager_mode = { (Stm.get_default_config ()) with Stm.mode = Stm.Eager_lazy } in
  bench "fifo-eager-pess"
    (fun () -> S.P_fifo.make ~lap:S.Trait.Pessimistic ())
    (fun q txn j ->
      if j land 1 = 0 then S.P_fifo.enqueue q txn j
      else ignore (S.P_fifo.dequeue q txn));
  bench "fifo-lazy-opt"
    (fun () -> S.P_lazy_fifo.make ())
    (fun q txn j ->
      if j land 1 = 0 then S.P_lazy_fifo.enqueue q txn j
      else ignore (S.P_lazy_fifo.dequeue q txn));
  bench "stack-eager-opt" ~config:eager_mode
    (fun () -> S.P_stack.make ())
    (fun q txn j ->
      if j land 1 = 0 then S.P_stack.push q txn j
      else ignore (S.P_stack.pop q txn));
  bench "omap-lazy-opt"
    (fun () -> S.P_omap.make ~index:(fun k -> k / 16) ())
    (fun q txn j ->
      let k = j land 1023 in
      if j land 3 = 0 then ignore (S.P_omap.range q txn ~lo:k ~hi:(k + 32))
      else ignore (S.P_omap.put q txn k j))

let compose_bench () =
  W.Report.section
    "COMPOSE: one transaction spanning map + priority queue + counter";
  Printf.printf "%-22s %4s %10s %12s %9s %9s\n" "preset" "t" "mean(ms)"
    "txn/s" "commits" "aborts";
  Printf.printf "%s\n" (String.make 72 '-');
  let total_txns = max 500 (total_ops / 8) in
  let bench name ?config make_world =
    List.iter
      (fun threads ->
        let step, _world = make_world () in
        let per = total_txns / threads in
        let before = Stats.read () in
        let dt =
          1000.0
          *. W.Runner.timed ~threads (fun i ->
                 let rng = Random.State.make [| i + 13 |] in
                 for _ = 1 to per do
                   Stm.atomically ?config (fun txn -> step rng txn)
                 done)
        in
        let st = Stats.diff before (Stats.read ()) in
        Printf.printf "%-22s %4d %10.2f %12.0f %9d %9d\n%!" name threads dt
          (float_of_int total_txns /. dt *. 1000.0)
          st.Stats.commits st.Stats.aborts)
      threads_list
  in
  (* One "world": a work map, a job queue and a completion counter; a
     step claims a job, bumps its key in the map, and counts it. *)
  let make_world ~map ~pq ~counter_lap () =
    let m : (int, int) Proust_structures.Trait.Map.ops = map () in
    let q : int S.Trait.Pqueue.ops = pq () in
    let c = S.P_counter.make ~lap:counter_lap ~init:1_000_000 () in
    let step rng txn =
      let k = Random.State.int rng 256 in
      q.S.Trait.Pqueue.insert txn k;
      (match q.S.Trait.Pqueue.remove_min txn with
      | Some j ->
          let v =
            Option.value ~default:0 (m.Proust_structures.Trait.Map.get txn j)
          in
          ignore (m.Proust_structures.Trait.Map.put txn j (v + 1))
      | None -> ());
      S.P_counter.incr c txn
    in
    (step, (m, q, c))
  in
  bench "all-pessimistic"
    (make_world
       ~map:(fun () ->
         S.P_hashmap.ops (S.P_hashmap.make ~lap:S.Trait.Pessimistic ()))
       ~pq:(fun () ->
         S.P_pqueue.ops
           (S.P_pqueue.make ~cmp:Int.compare ~lap:S.Trait.Pessimistic ()))
       ~counter_lap:S.Trait.Pessimistic);
  bench "all-lazy-optimistic" ~config:(W.Registry.eager_mode ())
    (* counter is eager; Eager_lazy covers it, lazy structures are
       opaque under every mode *)
    (make_world
       ~map:(fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()))
       ~pq:(fun () -> S.P_lazy_pqueue.ops (S.P_lazy_pqueue.make ~cmp:Int.compare ()))
       ~counter_lap:S.Trait.Optimistic);
  bench "mixed" ~config:(W.Registry.eager_mode ())
    (make_world
       ~map:(fun () -> S.P_lazy_triemap.ops (S.P_lazy_triemap.make ()))
       ~pq:(fun () ->
         S.P_pqueue.ops
           (S.P_pqueue.make ~cmp:Int.compare ~lap:S.Trait.Pessimistic ()))
       ~counter_lap:S.Trait.Optimistic)

(* ------------------------------------------------------------------ *)
(* TAB-MICRO: single-threaded per-operation latency (Bechamel).        *)

let micro () =
  W.Report.section "TAB-MICRO: single-thread per-op latency (Bechamel)";
  let open Bechamel in
  let make_test name
      (make : unit -> (int, int) Proust_structures.Trait.Map.ops) =
    let ops = make () in
    Stm.atomically (fun txn ->
        for k = 0 to 1023 do
          ignore (ops.put txn k k)
        done);
    let i = ref 0 in
    [
      Test.make
        ~name:(name ^ "/get")
        (Staged.stage (fun () ->
             incr i;
             ignore (Stm.atomically (fun txn -> ops.get txn (!i land 1023)))));
      Test.make
        ~name:(name ^ "/put")
        (Staged.stage (fun () ->
             incr i;
             ignore (Stm.atomically (fun txn -> ops.put txn (!i land 1023) !i))));
    ]
  in
  let tests =
    List.concat
      [
        make_test "stm-map" (fun () -> B.Stm_hashmap.ops (B.Stm_hashmap.make ()));
        make_test "predication" (fun () ->
            B.Predication_map.ops (B.Predication_map.make ()));
        make_test "eager-pess" (fun () ->
            Proust_structures.P_hashmap.ops (Proust_structures.P_hashmap.make ~lap:Proust_structures.Trait.Pessimistic ()));
        make_test "lazy-memo" (fun () ->
            Proust_structures.P_lazy_hashmap.ops (Proust_structures.P_lazy_hashmap.make ()));
        make_test "lazy-snap" (fun () ->
            Proust_structures.P_lazy_triemap.ops (Proust_structures.P_lazy_triemap.make ()));
      ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> (name, ns) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-36s %12s\n%s\n" "benchmark" "ns/op" (String.make 50 '-');
  List.iter (fun (name, ns) -> Printf.printf "%-36s %12.1f\n" name ns) rows

(* ------------------------------------------------------------------ *)
(* OBS-OVERHEAD: the disabled-observability budget.                     *)

(* Measures a tight read/write transaction loop three ways in one
   process: with observability never enabled (base), with tracing and
   metrics on, and again after disabling them.  Each instrumentation
   site must collapse back to a single atomic load once the gate
   closes, so the third measurement has to land within tolerance of
   the first; otherwise this exits non-zero (the CI regression
   check).  Robustness against container noise: best-of-N. *)
let obs_overhead () =
  W.Report.section "OBS-OVERHEAD: disabled-tracing budget (single atomic load)";
  let iters = env_int "PROUST_OVERHEAD_ITERS" 200_000 in
  let tolerance =
    float_of_int (env_int "PROUST_OVERHEAD_TOL_PCT" 5) /. 100.0
  in
  let r = Tvar.make 0 in
  let once () =
    let t0 = Clock.now_mono () in
    for i = 1 to iters do
      Stm.atomically (fun txn ->
          ignore (Stm.read txn r);
          Stm.write txn r i)
    done;
    (Clock.now_mono () -. t0) /. float_of_int iters *. 1e9
  in
  let best_of n =
    ignore (once ());
    Gc.full_major ();
    let best = ref infinity in
    for _ = 1 to n do
      best := min !best (once ())
    done;
    !best
  in
  let base = best_of 5 in
  Obs.Trace.enable ();
  Obs.Metrics.enable ();
  let on = best_of 3 in
  Obs.Trace.disable ();
  Obs.Metrics.disable ();
  let off = best_of 5 in
  Printf.printf "ns/txn  never-enabled %8.1f   enabled %8.1f   re-disabled %8.1f\n"
    base on off;
  let limit = base *. (1.0 +. tolerance) in
  if off > limit then begin
    Printf.printf
      "FAIL: re-disabled %.1f ns/txn exceeds never-enabled %.1f ns/txn by \
       more than %.0f%%\n"
      off base (tolerance *. 100.0);
    exit 1
  end
  else
    Printf.printf "PASS: disabled-observability overhead within %.0f%% budget\n"
      (tolerance *. 100.0)

(* ------------------------------------------------------------------ *)
(* OVERLOAD: QoS degradation curve under domain oversubscription.      *)

(* Sweeps worker counts from 1x to 4x PROUST_DOMAINS running a
   write-heavy eager hashmap workload where every operation is a
   bounded [Stm.atomic ~deadline ~max_attempts] call, with the
   shedder and the watchdog armed.  The point of the curve: past the
   core count, throughput degrades but every worker keeps committing
   (no starvation, no livelock) and the refused work is visible in
   the shed / timed-out / budget columns rather than silently
   retried forever. *)
let overload () =
  let base = env_int "PROUST_DOMAINS" (max 2 (min 4 (Domain.recommended_domain_count ()))) in
  let deadline_s = float_of_int (env_int "PROUST_DEADLINE_US" 10_000) *. 1e-6 in
  let max_attempts = env_int "PROUST_MAX_ATTEMPTS" 64 in
  W.Report.section
    (Printf.sprintf
       "OVERLOAD: bounded txns at 1x-4x of %d domains (deadline %.1f ms, \
        budget %d attempts)"
       base (deadline_s *. 1000.0) max_attempts);
  Printf.printf "%-14s %4s %5s %10s %12s %9s %9s %6s %6s %6s %6s\n" "impl" "t"
    "over" "mean(ms)" "ops/s" "commits" "min/wkr" "shed" "tmout" "budg" "wkill";
  Printf.printf "%s\n" (String.make 104 '-');
  let key_range = 256 in
  let config = Some (W.Registry.eager_mode ()) in
  Qos.Shedder.enable ();
  let wd = Qos.Watchdog.start () in
  Fun.protect
    ~finally:(fun () ->
      Qos.Watchdog.stop wd;
      Qos.Shedder.disable ())
    (fun () ->
      List.iter
        (fun mult ->
          let workers = base * mult in
          let per = max 200 (total_ops / workers) in
          let name = Printf.sprintf "overload/x%d" mult in
          let m = S.P_hashmap.ops (S.P_hashmap.make ()) in
          let committed = Array.make workers 0 in
          let shed = Array.make workers 0 in
          let timed_out = Array.make workers 0 in
          let budget = Array.make workers 0 in
          let before = Stats.read () in
          let dt_ms =
            1000.0
            *. W.Runner.timed ~threads:workers (fun i ->
                   let rng = Random.State.make [| 0x10ad; i |] in
                   for j = 1 to per do
                     let k = Random.State.int rng key_range in
                     match
                       Stm.atomic ?config
                         ~deadline:(Clock.now_mono () +. deadline_s)
                         ~max_attempts
                         (fun txn ->
                           ignore (m.Proust_structures.Trait.Map.put txn k j))
                     with
                     | Stm.Outcome.Committed () ->
                         committed.(i) <- committed.(i) + 1
                     | Stm.Outcome.Shed -> shed.(i) <- shed.(i) + 1
                     | Stm.Outcome.Timed_out ->
                         timed_out.(i) <- timed_out.(i) + 1
                     | Stm.Outcome.Budget_exhausted ->
                         budget.(i) <- budget.(i) + 1
                   done)
          in
          let st = Stats.diff before (Stats.read ()) in
          let sum a = Array.fold_left ( + ) 0 a in
          let min_worker = Array.fold_left min max_int committed in
          let total_committed = sum committed in
          let ops_per_s = float_of_int total_committed /. dt_ms *. 1000.0 in
          Printf.printf
            "%-14s %4d %4dx %10.2f %12.0f %9d %9d %6d %6d %6d %6d\n%!" name
            workers mult dt_ms ops_per_s total_committed min_worker (sum shed)
            (sum timed_out) (sum budget) st.Stats.watchdog_kills;
          emit
            (Obs.Json.Obj
               [
                 ("impl", Obs.Json.String name);
                 ("u", Obs.Json.Float 1.0);
                 ("o", Obs.Json.Int 1);
                 ("threads", Obs.Json.Int workers);
                 ("oversubscription", Obs.Json.Int mult);
                 ("base_domains", Obs.Json.Int base);
                 ("key_range", Obs.Json.Int key_range);
                 ("ops_per_worker", Obs.Json.Int per);
                 ("deadline_s", Obs.Json.Float deadline_s);
                 ("max_attempts", Obs.Json.Int max_attempts);
                 ("mean_ms", Obs.Json.Float dt_ms);
                 ("ops_per_s", Obs.Json.Float ops_per_s);
                 ("committed_total", Obs.Json.Int total_committed);
                 ("committed_min_worker", Obs.Json.Int min_worker);
                 ("shed", Obs.Json.Int (sum shed));
                 ("timed_out", Obs.Json.Int (sum timed_out));
                 ("budget_exhausted", Obs.Json.Int (sum budget));
                 ( "qos_state",
                   Obs.Json.String (if Qos.Shedder.degraded () then "degraded" else "normal") );
                 ("stats", W.Report.stats_json (Stats.to_assoc st));
               ]))
        [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* DURABILITY: redo-log encoding size and group-commit throughput.     *)

module D = Proust_durable

(* Two studies behind `main.exe durability`:

   1. bytes/commit for value vs intent records on a lazy map and on the
      COW pqueue — the paper-motivated claim that logging Proustian
      intents is cheaper than logging the value write set, most
      dramatically where the write set is the whole structure (COW).
   2. committed txns/s against the group-commit linger window, with
      every transaction fsync-waited: the batching knob trades commit
      latency for fsync amortization (visible in fsync_batch_size
      p50/p99). *)
let durability () =
  let commits = if quick then 300 else 1_000 in
  W.Report.section
    (Printf.sprintf "DURABILITY: record formats and group commit (%d commits)"
       commits);
  Printf.printf "%-22s %-7s %9s %9s %12s\n" "structure" "format" "commits"
    "bytes" "bytes/commit";
  Printf.printf "%s\n" (String.make 64 '-');
  let bytes_cell ~structure ~fmt ~drive =
    D.Temp.with_file (fun path ->
        let log = D.Redo_log.create ~path () in
        drive log;
        let bytes = D.Redo_log.bytes_appended log in
        let appends = D.Redo_log.appends log in
        D.Redo_log.close log;
        let per = float_of_int bytes /. float_of_int (max 1 appends) in
        Printf.printf "%-22s %-7s %9d %9d %12.1f\n%!" structure
          (D.Frame.format_name fmt) appends bytes per;
        emit
          (Obs.Json.Obj
             [
               ("kind", Obs.Json.String "durable-bytes");
               ("structure", Obs.Json.String structure);
               ("format", Obs.Json.String (D.Frame.format_name fmt));
               ("commits", Obs.Json.Int appends);
               ("bytes", Obs.Json.Int bytes);
               ("bytes_per_commit", Obs.Json.Float per);
             ]))
  in
  List.iter
    (fun fmt ->
      bytes_cell ~structure:"lazy-hashmap" ~fmt ~drive:(fun log ->
          let m =
            D.Durable_map.ops
              (D.Durable_map.wrap ~fmt ~log
                 (S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ())))
          in
          for i = 1 to commits do
            Stm.atomically (fun txn ->
                ignore (m.S.Trait.Map.put txn (i mod 256) i))
          done))
    [ D.Frame.Value; D.Frame.Intent ];
  List.iter
    (fun fmt ->
      bytes_cell ~structure:"cow-pqueue" ~fmt ~drive:(fun log ->
          let pq = D.Durable_pqueue.create ~fmt ~log ~cmp:compare () in
          let ops = D.Durable_pqueue.ops pq in
          for i = 1 to commits do
            Stm.atomically (fun txn ->
                if i mod 4 = 0 then ignore (ops.S.Trait.Pqueue.remove_min txn)
                else ops.S.Trait.Pqueue.insert txn (i * 37 mod 1009))
          done))
    [ D.Frame.Value; D.Frame.Intent ];
  (* Part 2: throughput vs the group-commit linger window. *)
  let workers = env_int "PROUST_DOMAINS" (max 2 (min 4 (Domain.recommended_domain_count ()))) in
  let per = max 50 (commits / workers) in
  Printf.printf "\n%-14s %4s %10s %12s %8s %8s %8s\n" "linger" "t" "mean(ms)"
    "commits/s" "fsyncs" "batchp50" "batchp99";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun batch_delay ->
      D.Temp.with_file (fun path ->
          let log = D.Redo_log.create ~batch_delay ~path () in
          let m =
            D.Durable_map.ops
              (D.Durable_map.wrap ~fmt:D.Frame.Intent ~log
                 (S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ())))
          in
          let before = Stats.read () in
          (* The window spans every worker: commits/s divides all
             domains' commits, so it must not end when the first
             domain finishes. *)
          let dt_ms =
            1000.0
            *. W.Runner.timed ~threads:workers (fun d ->
                   for i = 1 to per do
                     Stm.atomically (fun txn ->
                         ignore (m.S.Trait.Map.put txn ((d * per) + i) i))
                   done)
          in
          D.Redo_log.close log;
          let st = Stats.diff before (Stats.read ()) in
          let total = workers * per in
          let per_s = float_of_int total /. dt_ms *. 1000.0 in
          let name = Printf.sprintf "linger=%gus" (batch_delay *. 1e6) in
          Printf.printf "%-14s %4d %10.2f %12.0f %8d %8d %8d\n%!" name workers
            dt_ms per_s st.Stats.fsync_batches st.Stats.fsync_batch_size_p50
            st.Stats.fsync_batch_size_p99;
          emit
            (Obs.Json.Obj
               [
                 ("kind", Obs.Json.String "durable-fsync");
                 ("batch_delay_s", Obs.Json.Float batch_delay);
                 ("threads", Obs.Json.Int workers);
                 ("commits", Obs.Json.Int total);
                 ("mean_ms", Obs.Json.Float dt_ms);
                 ("commits_per_s", Obs.Json.Float per_s);
                 ("stats", W.Report.stats_json (Stats.to_assoc st));
               ])))
    (if quick then [ 0.; 0.001 ] else [ 0.; 0.0002; 0.001; 0.005 ])

(* ------------------------------------------------------------------ *)
(* PARKING: parked retry vs busy-poll on a blocking channel.           *)

module Y = Proust_sync

(* One producer feeds [consumers] blocking receivers through a small
   channel, pausing between bursts so the consumers genuinely wait for
   data rather than streaming it.  The same workload runs once per
   retry mode: Park should show parks > 0 and retry_polls = 0, Poll
   the reverse — that contrast is what CI gates on over
   BENCH_parking.json. *)
let parking () =
  let consumers =
    env_int "PROUST_DOMAINS"
      (max 2 (min 4 (Domain.recommended_domain_count ())))
  in
  let msgs = max 200 (min 2_000 (total_ops / 10)) in
  W.Report.section
    (Printf.sprintf "PARKING: blocked retry vs busy-poll (%d msgs, %d consumers)"
       msgs consumers);
  Printf.printf "%-6s %8s %10s %8s %8s %9s %12s %9s\n" "mode" "recv"
    "mean(ms)" "parks" "wakeups" "spurious" "retry_polls" "maxwaitq";
  Printf.printf "%s\n" (String.make 78 '-');
  let run_mode mode name =
    Stm.set_retry_mode mode;
    let ch = Y.Channel.make ~capacity:8 () in
    let received = Atomic.make 0 in
    let before = Stats.read () in
    (* Domain 0 produces; the rest receive until the channel closes. *)
    let dt_ms =
      1000.0
      *. W.Runner.timed ~threads:(consumers + 1) (fun i ->
             if i = 0 then begin
               for n = 1 to msgs do
                 Stm.atomically (fun txn -> Y.Channel.send txn ch n);
                 (* Idle gaps let consumers drain the channel and block
                    on empty: the waiting, not the throughput, is under
                    test. *)
                 if n mod 16 = 0 then Unix.sleepf 0.002
               done;
               Stm.atomically (fun txn -> Y.Channel.close txn ch)
             end
             else
               let rec loop () =
                 match
                   Stm.atomically (fun txn -> Y.Channel.recv_opt txn ch)
                 with
                 | Some _ ->
                     Atomic.incr received;
                     loop ()
                 | None -> ()
               in
               loop ())
    in
    let st = Stats.diff before (Stats.read ()) in
    Printf.printf "%-6s %8d %10.2f %8d %8d %9d %12d %9d\n%!" name
      (Atomic.get received) dt_ms st.Stats.parks st.Stats.wakeups
      st.Stats.spurious_wakeups st.Stats.retry_polls st.Stats.wait_list_max;
    emit
      (Obs.Json.Obj
         [
           ("kind", Obs.Json.String "parking");
           ("retry_mode", Obs.Json.String name);
           ("threads", Obs.Json.Int consumers);
           ("msgs", Obs.Json.Int msgs);
           ("received", Obs.Json.Int (Atomic.get received));
           ("mean_ms", Obs.Json.Float dt_ms);
           ("parks", Obs.Json.Int st.Stats.parks);
           ("wakeups", Obs.Json.Int st.Stats.wakeups);
           ("spurious_wakeups", Obs.Json.Int st.Stats.spurious_wakeups);
           ("retry_polls", Obs.Json.Int st.Stats.retry_polls);
           ("wait_list_max", Obs.Json.Int st.Stats.wait_list_max);
           ("stats", W.Report.stats_json (Stats.to_assoc st));
         ])
  in
  Fun.protect
    ~finally:(fun () -> Stm.set_retry_mode Stm.Park)
    (fun () ->
      run_mode Stm.Park "park";
      run_mode Stm.Poll "poll")

(* ------------------------------------------------------------------ *)
(* COMBINING: flat-combining group commit vs inline publication.       *)

(* Write-heavy durable cells under Serial_commit: every commit appends
   to the redo log and waits for its fsync, so the device round-trip —
   not the sub-microsecond gate hold — is the cost the publisher can
   amortize.  The grouped side's combiner drains the whole publication
   list in one gate acquisition and lands the batch's appends as one
   burst, which the flusher serves in one cycle; inline commits trickle
   appends through the gate one by one and fragment across cycles.
   Ratios are medians over paired A/B trials because real fsync cost on
   a shared filesystem drifts run to run; the publication economy
   (gate acquisitions per commit) is scheduling-independent. *)
let combining () =
  let domains = env_int "PROUST_DOMAINS" 8 in
  let iters = if quick then 200 else env_int "PROUST_COMBINE_ITERS" 500 in
  let pairs = if quick then 3 else env_int "PROUST_COMBINE_TRIALS" 5 in
  let linger = 1.5e-3 in
  let fsync_delay = env_float "PROUST_FSYNC_DELAY" 0. in
  W.Report.section
    (Printf.sprintf
       "COMBINING: grouped vs inline publication (%d domains x %d durable \
        puts, %d paired trials)"
       domains iters pairs);
  let side grouped =
    D.Temp.with_file (fun path ->
        let log = D.Redo_log.create ~fsync_delay ~path () in
        let base = S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()) in
        let m =
          D.Durable_map.ops (D.Durable_map.wrap ~fmt:D.Frame.Value ~log base)
        in
        Stm.set_combining grouped;
        Stm.set_combine_linger (if grouped then linger else 0.);
        let cfg =
          { (Stm.get_default_config ()) with Stm.mode = Stm.Serial_commit }
        in
        let before = Stats.read () in
        let dt =
          W.Runner.timed ~threads:domains (fun d ->
              let rng = Random.State.make [| 11; d |] in
              for _ = 1 to iters do
                Stm.atomically ~config:cfg (fun txn ->
                    let k = (d * 1000) + Random.State.int rng 64 in
                    ignore (m.S.Trait.Map.put txn k d))
              done)
        in
        let st = Stats.diff before (Stats.read ()) in
        D.Redo_log.close log;
        let commits = domains * iters in
        (* Inline publication takes the gate once per commit; a grouped
           session takes it once per election. *)
        let acq = if grouped then st.Stats.combiner_elections else commits in
        (float_of_int commits /. dt, acq, st))
  in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length l / 2)
  in
  Printf.printf "%-6s %12s %12s %7s %7s %8s %8s\n" "trial" "inline/s"
    "grouped/s" "ratio" "batch" "acq_in" "acq_gr";
  Printf.printf "%s\n" (String.make 66 '-');
  let saved_combining = Stm.combining () in
  let ratios = ref [] in
  let ti_all = ref [] and tg_all = ref [] in
  let acq_in = ref 0 and acq_gr = ref 0 in
  let elections = ref 0 and combined = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Stm.set_combine_linger 0.;
      Stm.set_combining saved_combining)
    (fun () ->
      for trial = 1 to pairs do
        let ti, ai, _ = side false in
        let tg, ag, stg = side true in
        let batch =
          if stg.Stats.combiner_elections = 0 then 1.0
          else
            float_of_int stg.Stats.combined_commits
            /. float_of_int stg.Stats.combiner_elections
        in
        ratios := (tg /. ti) :: !ratios;
        ti_all := ti :: !ti_all;
        tg_all := tg :: !tg_all;
        acq_in := !acq_in + ai;
        acq_gr := !acq_gr + ag;
        elections := !elections + stg.Stats.combiner_elections;
        combined := !combined + stg.Stats.combined_commits;
        Printf.printf "%-6d %12.0f %12.0f %7.2f %7.2f %8d %8d\n%!" trial ti tg
          (tg /. ti) batch ai ag;
        emit
          (Obs.Json.Obj
             [
               ("kind", Obs.Json.String "combining-trial");
               ("trial", Obs.Json.Int trial);
               ("threads", Obs.Json.Int domains);
               ("txns", Obs.Json.Int (domains * iters));
               ("inline_commits_per_s", Obs.Json.Float ti);
               ("grouped_commits_per_s", Obs.Json.Float tg);
               ("throughput_ratio", Obs.Json.Float (tg /. ti));
               ("mean_batch", Obs.Json.Float batch);
               ("stats", W.Report.stats_json (Stats.to_assoc stg));
             ])
      done);
  let commits_total = pairs * domains * iters in
  let mean_batch =
    if !elections = 0 then 1.0
    else float_of_int !combined /. float_of_int !elections
  in
  let acq_per_commit_grouped =
    float_of_int !acq_gr /. float_of_int commits_total
  in
  let economy = float_of_int !acq_in /. float_of_int (max 1 !acq_gr) in
  Printf.printf
    "median: ratio=%.2f batch=%.2f | gate acquisitions/commit: inline=1.00 \
     grouped=%.3f (%.1fx fewer)\n%!"
    (median !ratios) mean_batch acq_per_commit_grouped economy;
  emit
    (Obs.Json.Obj
       [
         ("kind", Obs.Json.String "combining");
         ("threads", Obs.Json.Int domains);
         ("txns_per_trial", Obs.Json.Int (domains * iters));
         ("pairs", Obs.Json.Int pairs);
         ("fsync_delay_s", Obs.Json.Float fsync_delay);
         ("linger_s", Obs.Json.Float linger);
         ("inline_commits_per_s", Obs.Json.Float (median !ti_all));
         ("grouped_commits_per_s", Obs.Json.Float (median !tg_all));
         ("throughput_ratio", Obs.Json.Float (median !ratios));
         ("mean_batch", Obs.Json.Float mean_batch);
         ("gate_acq_per_commit_inline", Obs.Json.Float 1.0);
         ("gate_acq_per_commit_grouped", Obs.Json.Float acq_per_commit_grouped);
         ("gate_economy", Obs.Json.Float economy);
       ])

(* ------------------------------------------------------------------ *)
(* Open-system overload: Poisson/bursty tenants issuing at fixed
   intended arrival times (coordinated-omission-correct latency),
   per-tenant QoS classes, brownout on/off A/B per structure, and the
   gold-isolation gate the CI opensystem-smoke job enforces. *)

(* Set when PROUST_OS_GATE=1 and the isolation gate fails; main exits
   nonzero after the JSON report is written. *)
let gate_failed = ref false

let opensystem () =
  let duration = env_float "PROUST_OS_DURATION" (if quick then 1.2 else 2.5) in
  let warmup = env_float "PROUST_OS_WARMUP" (min 0.6 (duration /. 4.0)) in
  (* Pool size defaults to the machine: oversubscribing domains on a
     small box turns scheduler timeslices into a double-digit-ms
     latency floor that no admission controller can see past. *)
  let os_workers =
    env_int "PROUST_OS_WORKERS"
      (max 1 (min 4 (Domain.recommended_domain_count () - 1)))
  in
  let deadline = env_float "PROUST_OS_DEADLINE_MS" 50.0 *. 1e-3 in
  let keys = env_int "PROUST_OS_KEYS" 1_000_000 in
  let hot = env_int "PROUST_OS_HOT" 8 in
  (* Offered intensity as a fraction of calibrated capacity.  Above
     1.0 on purpose: bursty duty-cycle variance over a short window
     realizes below the configured figure, and the gate's claim needs
     sustained >= 80% realized utilization with bursts well past
     capacity. *)
  let util = env_float "PROUST_OS_UTIL" 1.1 in
  let bound_ns =
    int_of_float (env_float "PROUST_OS_P999_BOUND_MS" 25.0 *. 1e6)
  in
  let entry_names =
    String.split_on_char ','
      (Option.value
         (Sys.getenv_opt "PROUST_OS_ENTRIES")
         ~default:
           (if quick then "omap-snap,eager-opt-hotgate"
            else "omap-snap,stm-map,eager-opt,eager-opt-hotgate"))
  in
  let gate_entry =
    Option.value (Sys.getenv_opt "PROUST_OS_GATE_ENTRY") ~default:"omap-snap"
  in
  let mvcc_config =
    { (Stm.get_default_config ()) with mode = Stm.Multi_version }
  in
  (* Encounter-time entries keep their derived eager config (RO routing
     is then a no-op and the hot gate is the mitigation story);
     any-mode entries run under MVCC so brownout can route reads onto
     the abort-free snapshot path. *)
  let config_for (e : W.Registry.entry) =
    match e.W.Registry.config with Some c -> c | None -> mvcc_config
  in
  let gold_dist = W.Arrivals.Zipf { s = 0.9; scramble = true } in
  let bronze_dist = W.Arrivals.Hotset { hot; fraction = 0.9 } in
  (* Closed-loop capacity of the contended mix (half the domains on the
     gold profile, half on the antagonist's): open-system rates scale
     off this, so utilization is machine-independent. *)
  let calibrate (e : W.Registry.entry) ~config =
    let make =
      match e.W.Registry.target with
      | W.Registry.Map m -> m
      | _ -> invalid_arg "opensystem: map entries only"
    in
    let ops = make () in
    let config = Some config in
    for k = 0 to 9_999 do
      Stm.atomically ?config (fun txn ->
          ignore (ops.Proust_structures.Trait.Map.put txn k k))
    done;
    let stop = Atomic.make false in
    let counts = Array.init os_workers (fun _ -> Atomic.make 0) in
    let seconds = env_float "PROUST_OS_CAL_S" 0.4 in
    let ds =
      List.init os_workers (fun i ->
          Domain.spawn (fun () ->
              let rng = W.Arrivals.rng ~salt:[ 0x05; i ] () in
              let goldish = i < os_workers / 2 in
              let kg =
                W.Arrivals.keygen
                  (if goldish then gold_dist else bronze_dist)
                  ~keys
              in
              let wf = if goldish then 0.0 else 0.8 in
              while not (Atomic.get stop) do
                let arr = W.Arrivals.ops rng kg ~write_fraction:wf ~count:2 in
                match
                  Stm.atomic ?config
                    ~deadline:(Clock.now_mono () +. deadline)
                    (fun txn -> Array.iter (W.Workload.apply_op ops txn) arr)
                with
                | Stm.Outcome.Committed () -> Atomic.incr counts.(i)
                | _ -> ()
              done))
    in
    Unix.sleepf seconds;
    Atomic.set stop true;
    List.iter Domain.join ds;
    let total = Array.fold_left (fun a c -> a + Atomic.get c) 0 counts in
    float_of_int total /. seconds
  in
  let gold_of (r : W.Open_runner.result) =
    List.find
      (fun tr -> tr.W.Open_runner.tr_name = "gold")
      r.W.Open_runner.o_tenants
  in
  let bronze_of (r : W.Open_runner.result) =
    List.find
      (fun tr -> tr.W.Open_runner.tr_name = "bronze")
      r.W.Open_runner.o_tenants
  in
  let p999_intended (tr : W.Open_runner.tenant_result) =
    match tr.W.Open_runner.tr_latency with
    | Some s -> s.Obs.Metrics.intended.Obs.Histogram.p999
    | None -> 0
  in
  let run_cell (e : W.Registry.entry) ~config ~capacity ~brownout_on =
    let gold =
      W.Open_runner.tenant_spec ~name:"gold" ~klass:Qos.Tenant.Gold
        ~dist:gold_dist ~keys ~write_fraction:0.0 ~ops_per_txn:2 ~deadline
        (W.Arrivals.Poisson { rate = 0.4 *. util *. capacity })
    in
    (* Bronze gets a tight retry budget: a thrashing antagonist fails
       fast instead of occupying a pool worker for its whole deadline
       (which is what gold would otherwise queue behind). *)
    let bronze =
      W.Open_runner.tenant_spec ~name:"bronze" ~klass:Qos.Tenant.Bronze
        ~dist:bronze_dist ~keys ~write_fraction:0.8 ~ops_per_txn:2 ~deadline
        ~max_attempts:(env_int "PROUST_OS_BRONZE_ATTEMPTS" 2)
        (W.Arrivals.Bursty
           {
             rate_on = 1.1 *. util *. capacity;
             rate_off = 0.1 *. util *. capacity;
             (* Short dwells: many on/off cycles per run window, so
                the realized duty cycle concentrates near 50% instead
                of riding one seed's coin-flip, and every run
                exercises several burst onsets. *)
             mean_on = 0.1;
             mean_off = 0.1;
           })
    in
    (* Fast controller cadence for short bench windows; escalation is
       capped at [Shed_bronze]: gold admission is contractual. *)
    let brownout =
      if brownout_on then
        Some
          (Qos.Brownout.make
             ~config:
               {
                 (* Clamp bursts fast: at 27% excess rate the fluid
                    transient is (detection + ladder) * excess, so a
                    2 ms lag budget, a fast EWMA and a 1-sample dwell
                    keep the gold tail to a few ms of spike while the
                    probe waves the short dwell re-admits fail fast
                    under the bronze retry budget. *)
                 sample_window = 0.005;
                 lag_budget = 0.002;
                 alpha = 0.35;
                 ladder =
                   {
                     Qos.Brownout.Ladder.default_config with
                     dwell = 1;
                     max_level = Qos.Brownout.Shed_bronze;
                   };
               }
             ())
      else None
    in
    (* The brownout-off comparison runs the naive alternative — the
       class-blind global shedder — which is exactly what the gate
       shows failing: it sheds gold. *)
    if not brownout_on then
      Qos.Shedder.enable
        ~config:{ Qos.Shedder.default_config with sample_window = 0.02 }
        ();
    Fun.protect
      ~finally:(fun () -> if not brownout_on then Qos.Shedder.disable ())
      (fun () ->
        W.Open_runner.run ?brownout ~config ~workers:os_workers ~warmup
          ~duration ~entry:e [ gold; bronze ])
  in
  W.Report.section
    (Printf.sprintf
       "OPENSYSTEM: open-loop tenants at %.0f%% utilization, %.1fs/cell \
        (deadline %.0f ms, gate entry %s)"
       (util *. 100.0) duration (deadline *. 1000.0) gate_entry);
  Printf.printf "%-18s %-4s %9s %6s %11s %11s %8s %8s %-11s\n" "impl" "brn"
    "cap/s" "util" "gold-p999" "gold-shed" "gold/s" "brz-shed" "peak";
  Printf.printf "%s\n" (String.make 94 '-');
  let gate_cells = ref [] in
  List.iter
    (fun name ->
      match W.Registry.find name with
      | None -> Printf.printf "%-18s (unknown entry, skipped)\n%!" name
      | Some e ->
          let config = config_for e in
          let capacity = calibrate e ~config in
          List.iter
            (fun brownout_on ->
              let r = run_cell e ~config ~capacity ~brownout_on in
              let g = gold_of r and b = bronze_of r in
              let gp999 = p999_intended g in
              Printf.printf
                "%-18s %-4s %9.0f %6.2f %9.2fms %11d %8.0f %8d %-11s\n%!"
                name
                (if brownout_on then "on" else "off")
                capacity
                (r.W.Open_runner.o_offered /. capacity)
                (float_of_int gp999 /. 1e6)
                g.W.Open_runner.tr_stats.Qos.Tenant.s_shed
                g.W.Open_runner.tr_goodput
                b.W.Open_runner.tr_stats.Qos.Tenant.s_shed
                (match r.W.Open_runner.o_brownout_peak with
                | Some l -> Qos.Brownout.level_name l
                | None -> "-");
              if name = gate_entry then
                gate_cells := (brownout_on, r) :: !gate_cells;
              emit
                (Obs.Json.Obj
                   [
                     ("kind", Obs.Json.String "opensystem");
                     ("entry", Obs.Json.String name);
                     ("stm_mode", Obs.Json.String (Stm.mode_name config.Stm.mode));
                     ("brownout", Obs.Json.Bool brownout_on);
                     ("capacity_tps", Obs.Json.Float capacity);
                     ( "utilization",
                       Obs.Json.Float (r.W.Open_runner.o_offered /. capacity)
                     );
                     ("gold_p999_intended_ns", Obs.Json.Int gp999);
                     ("report", W.Open_runner.to_json r);
                   ]))
            [ true; false ])
    entry_names;
  (* The isolation gate: with brownout on, gold p999 stays under the
     bound and gold sheds are zero; the brownout-off cell must violate
     at least one of the two. *)
  (match
     ( List.assoc_opt true !gate_cells,
       List.assoc_opt false !gate_cells )
   with
  | Some on, Some off ->
      let g_on = gold_of on and g_off = gold_of off in
      let on_p999 = p999_intended g_on and off_p999 = p999_intended g_off in
      let on_sheds = g_on.W.Open_runner.tr_stats.Qos.Tenant.s_shed in
      let off_sheds = g_off.W.Open_runner.tr_stats.Qos.Tenant.s_shed in
      let on_ok = on_p999 <= bound_ns && on_sheds = 0 in
      let off_violates = off_p999 > bound_ns || off_sheds > 0 in
      let pass = on_ok && off_violates in
      Printf.printf
        "gate[%s]: on(p999=%.2fms sheds=%d) off(p999=%.2fms sheds=%d) \
         bound=%.0fms -> %s\n%!"
        gate_entry
        (float_of_int on_p999 /. 1e6)
        on_sheds
        (float_of_int off_p999 /. 1e6)
        off_sheds
        (float_of_int bound_ns /. 1e6)
        (if pass then "PASS" else "FAIL");
      emit
        (Obs.Json.Obj
           [
             ("kind", Obs.Json.String "opensystem-gate");
             ("entry", Obs.Json.String gate_entry);
             ("bound_ns", Obs.Json.Int bound_ns);
             ("gold_p999_on_ns", Obs.Json.Int on_p999);
             ("gold_p999_off_ns", Obs.Json.Int off_p999);
             ("gold_sheds_on", Obs.Json.Int on_sheds);
             ("gold_sheds_off", Obs.Json.Int off_sheds);
             ("brownout_on_ok", Obs.Json.Bool on_ok);
             ("brownout_off_violates", Obs.Json.Bool off_violates);
             ("pass", Obs.Json.Bool pass);
           ]);
      if (not pass) && Sys.getenv_opt "PROUST_OS_GATE" = Some "1" then
        gate_failed := true
  | _ ->
      Printf.printf "gate[%s]: entry not in PROUST_OS_ENTRIES, skipped\n%!"
        gate_entry)

(* ------------------------------------------------------------------ *)
(* SWEEP: arbitrary points of the design space.                        *)

(* Each --impl registry entry at one (u, o) point, across
   PROUST_THREADS, under the PROUST_MODE default; an entry whose trait
   header needs encounter-time detection runs eager-lazy, as the
   registry derives (Figure 1). *)
let sweep () =
  let in_range lo hi conv s =
    Option.bind (conv s) (fun v -> if v >= lo && v <= hi then Some v else None)
  in
  let u =
    knob ~expected:"a number in [0, 1]" (in_range 0.0 1.0 float_of_string_opt)
      flag "-u" 0.5
  in
  let o =
    knob ~expected:"a positive integer" (in_range 1 max_int int_of_string_opt)
      flag "-o" 16
  in
  let entries =
    Option.value (flag "--impl") ~default:"lazy-memo"
    |> String.split_on_char ','
    |> List.map (fun name ->
           match W.Registry.find name with
           | Some e -> e
           | None ->
               die "--impl: unknown entry %S (known: %s)" name
                 (String.concat ", " (W.Registry.names ())))
  in
  W.Report.section
    (Printf.sprintf "SWEEP: u=%.2f o=%d, %d ops per cell" u o total_ops);
  W.Report.header ();
  List.iter
    (fun e -> List.iter (fun threads -> run_cell e ~u ~o ~threads) threads_list)
    entries

(* ------------------------------------------------------------------ *)

(* (name, run, in_all): dispatch, `all` (in this order) and usage all
   read this table. *)
let commands =
  [
    ("fig1", fig1, true);
    ("micro", micro, true);
    ("fig4", fig4, true);
    ("fig4-memo", fig4_memo, true);
    ("ablation-m", ablation_m, true);
    ("ablation-cm", ablation_cm, true);
    ("ablation-mode", ablation_mode, true);
    ("ablation-zipf", ablation_zipf, true);
    ("ablation-combine", ablation_combine, true);
    ("mvcc", mvcc_bench, true);
    ("pqueue", pqueue_bench, true);
    ("queue", queue_bench, true);
    ("structures", structures_bench, true);
    ("compose", compose_bench, true);
    ("overload", overload, true);
    ("opensystem", opensystem, true);
    ("durability", durability, true);
    ("parking", parking, true);
    ("combining", combining, true);
    ("obs-overhead", obs_overhead, false);
    ("sweep", sweep, false);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [%s|all] [--json FILE] [--trace FILE]\n\
    \       main.exe sweep --impl a,b [-u U] [-o O] [--json FILE] [--trace \
     FILE]\n"
    (String.concat "|" (List.map (fun (name, _, _) -> name) commands))

let () =
  if
    command <> "sweep"
    && List.exists (fun f -> List.mem_assoc f flags) [ "--impl"; "-u"; "-o" ]
  then die "--impl, -u and -o apply to sweep only";
  let run =
    match command with
    | "all" ->
        fun () ->
          List.iter (fun (_, run, in_all) -> if in_all then run ()) commands
    | name -> (
        match List.find_opt (fun (n, _, _) -> n = name) commands with
        | Some (_, run, _) -> run
        | None ->
            usage ();
            exit 2)
  in
  if json_file <> None then Obs.Metrics.enable ();
  if trace_file <> None then Obs.Trace.enable ();
  run ();
  Option.iter
    (fun file ->
      let config =
        [
          ("command", Obs.Json.String command);
          ("total_ops", Obs.Json.Int total_ops);
          ( "threads",
            Obs.Json.List (List.map (fun t -> Obs.Json.Int t) threads_list) );
          ("trials", Obs.Json.Int trials);
          ("quick", Obs.Json.Bool quick);
          ( "default_mode",
            Obs.Json.String (Stm.mode_name (Stm.get_default_config ()).Stm.mode)
          );
          ("ocaml", Obs.Json.String Sys.ocaml_version);
          ("unix_time", Obs.Json.Float (Unix.gettimeofday ()));
        ]
      in
      W.Report.write_json ~file ~config (List.rev !cells);
      Printf.printf "wrote JSON report: %s (%d cells)\n%!" file
        (List.length !cells))
    json_file;
  Option.iter
    (fun file ->
      Obs.Trace.dump_chrome_file file;
      Printf.printf "wrote Chrome trace: %s (%d events, %d dropped)\n%!" file
        (Obs.Trace.emitted ()) (Obs.Trace.dropped ()))
    trace_file;
  if !gate_failed then exit 1
