(** Tests for the benchmark substrate: workload generation and the
    throughput runner. *)

open Util
module W = Proust_workload

let spec ~u ~o =
  { W.Workload.key_range = 64; write_fraction = u; ops_per_txn = o; total_ops = 1_000 }

let test_stream_deterministic () =
  let s1 = W.Workload.stream ~seed:7 (spec ~u:0.5 ~o:4) ~count:100 in
  let s2 = W.Workload.stream ~seed:7 (spec ~u:0.5 ~o:4) ~count:100 in
  check cb "same seed, same stream" true (s1 = s2);
  let s3 = W.Workload.stream ~seed:8 (spec ~u:0.5 ~o:4) ~count:100 in
  check cb "different seed differs" true (s1 <> s3)

let classify = function
  | W.Workload.Get _ -> `R
  | W.Workload.Put _ | W.Workload.Remove _ -> `W

let test_write_fraction () =
  let count = 20_000 in
  let s = W.Workload.stream ~seed:1 (spec ~u:0.25 ~o:1) ~count in
  let writes =
    Array.fold_left (fun n op -> if classify op = `W then n + 1 else n) 0 s
  in
  let frac = float_of_int writes /. float_of_int count in
  check cb
    (Printf.sprintf "write fraction ~0.25 (got %.3f)" frac)
    true
    (frac > 0.22 && frac < 0.28)

let test_extremes () =
  let all p s = Array.for_all p s in
  check cb "u=0 all reads" true
    (all
       (fun op -> classify op = `R)
       (W.Workload.stream ~seed:1 (spec ~u:0.0 ~o:1) ~count:2_000));
  check cb "u=1 all writes" true
    (all
       (fun op -> classify op = `W)
       (W.Workload.stream ~seed:1 (spec ~u:1.0 ~o:1) ~count:2_000))

let test_keys_in_range () =
  let s = W.Workload.stream ~seed:3 (spec ~u:0.5 ~o:1) ~count:5_000 in
  check cb "all keys in range" true
    (Array.for_all
       (fun op ->
         let k =
           match op with
           | W.Workload.Get k | W.Workload.Put (k, _) | W.Workload.Remove k -> k
         in
         k >= 0 && k < 64)
       s)

let test_txn_count () =
  check ci "exact division" 10 (W.Workload.txn_count (spec ~u:0.0 ~o:100) ~count:1_000);
  check ci "ragged tail" 11 (W.Workload.txn_count (spec ~u:0.0 ~o:100) ~count:1_001)

let test_runner_end_to_end () =
  let make () =
    Proust_structures.P_lazy_hashmap.ops (Proust_structures.P_lazy_hashmap.make ())
  in
  let r =
    W.Runner.run ~trials:2 ~warmup:0 ~threads:2 ~spec:(spec ~u:0.5 ~o:4) make
  in
  check ci "two trials" 2 (List.length r.W.Runner.trials_ms);
  check cb "positive time" true (r.W.Runner.mean_ms > 0.0);
  check cb "throughput sane" true (r.W.Runner.throughput > 0.0);
  (* per trial: 32 prefill txns + 1000/2 ops in 4-op txns per thread *)
  check cb "commits recorded" true (r.W.Runner.stats.Stats.commits > 0)

let test_report_renders () =
  let make () =
    Proust_baselines.Predication_map.ops (Proust_baselines.Predication_map.make ())
  in
  let r =
    W.Runner.run ~trials:1 ~warmup:0 ~threads:1 ~spec:(spec ~u:0.5 ~o:1) make
  in
  (* smoke: the printers do not raise *)
  W.Report.header ();
  W.Report.row ~name:"test" r

(* The closed-loop primitive: every index runs exactly once, the
   window covers the slowest body, and each worker's allocation lands
   in [Stats]. *)
let test_timed () =
  let threads = 3 in
  let runs = Array.init threads (fun _ -> Atomic.make 0) in
  let before = Stats.read () in
  let dt =
    W.Runner.timed ~threads (fun i ->
        Atomic.incr runs.(i);
        ignore (Sys.opaque_identity (List.init 100 Fun.id));
        Unix.sleepf (0.01 *. float_of_int (i + 1)))
  in
  Array.iteri
    (fun i c -> check ci (Printf.sprintf "body %d ran once" i) 1 (Atomic.get c))
    runs;
  check cb
    (Printf.sprintf "window %.4fs covers the longest sleep" dt)
    true (dt >= 0.03);
  let st = Stats.diff before (Stats.read ()) in
  check cb "minor words recorded" true (st.Stats.minor_words > 0)

let suite =
  [
    test "stream deterministic" test_stream_deterministic;
    test "write fraction honored" test_write_fraction;
    test "u extremes" test_extremes;
    test "keys in range" test_keys_in_range;
    test "txn count" test_txn_count;
    slow "runner end to end" test_runner_end_to_end;
    slow "report renders" test_report_renders;
    test "timed runs each index once" test_timed;
  ]
