(* map-txn: the Proust layer under contention.  Two domains run a
   closed loop over a lazy-memo map (optimistic, lazy update with
   memoized shadow copies) under Eager_eager.  The 1,024 keys form 64
   groups of 16.  Half the transactions are transfers — four get+put
   pairs inside one group, sixteen operations that keep the group's
   sum constant; the rest read a whole group and check its sum, which
   must hold in every attempt (opacity), not only in committed ones.

   The mode is Eager_eager because its readers are visible: a writer
   that locks a stripe waits out the transactions that read it, so no
   writer can apply its replay log between a reader's stripe read and
   its read of the backing map.  Under the invisible-reader modes
   (Lazy_lazy, Eager_lazy, Serial_commit), in most runs, one or more
   read-only group reads commit a sum that never existed:
   [Memo_map.get] reads the stripe tvar and then the backing map, and
   a read-only transaction commits without revalidating.  [Lazy_lazy]
   below runs the same workload under Lazy_lazy so that this library
   defect stays reproducible (main.exe --workload map-txn-lazy-lazy);
   it is not one of the benchmark's workloads. *)

module P = Probe
module T = Proust_structures.Trait
module A = Bigarray.Array1

let groups = 64
let group_size = 16
let keys = groups * group_size
let init = 1000
let transfers = 4
let update_share = 0.5
let domains = 2

(* Pre-generated transactions per domain, cycled through.  Flattened:
   kind (1 = transfer), group, then [transfers] (src, dst, amount). *)
let pool = 1 lsl 16
let stride = 2 + (3 * transfers)

let inputs ~seed d =
  let st = Random.State.make [| seed; d |] in
  let a = A.create Bigarray.int Bigarray.c_layout (pool * stride) in
  for i = 0 to pool - 1 do
    let b = i * stride in
    a.{b} <- (if Random.State.float st 1.0 < update_share then 1 else 0);
    a.{b + 1} <- Random.State.int st groups;
    for p = 0 to transfers - 1 do
      let src = Random.State.int st group_size in
      a.{b + 2 + (3 * p)} <- src;
      a.{b + 3 + (3 * p)} <- (src + 1 + Random.State.int st (group_size - 1)) mod group_size;
      a.{b + 4 + (3 * p)} <- 1 + Random.State.int st 100
    done
  done;
  a

module Make (M : sig
  val mode : Stm.mode
end) =
struct
  type t = {
    config : Stm.config;
    ops : (int, int) T.Map.ops;
    inputs : (int, Bigarray.int_elt, Bigarray.c_layout) A.t array;
    violations : int Atomic.t;  (* read attempts that saw a wrong group sum *)
    committed_bad : int Atomic.t;  (* committed reads that returned one *)
  }

  let setup ~seed ~dir:_ =
    let config = { (Stm.get_default_config ()) with mode = M.mode } in
    let ops = P.lazy_memo () in
    Stm.atomically ~config (fun txn ->
        for k = 0 to keys - 1 do
          ignore (ops.T.Map.put txn k init)
        done);
    { config; ops; inputs = Array.init domains (inputs ~seed); violations = Atomic.make 0; committed_bad = Atomic.make 0 }

  let discard _ = ()

  let worker st (c : P.ctx) (ops : (int, int) T.Map.ops) clock =
    let a = st.inputs.(c.P.tid) in
    let config = st.config in
    let i = ref 0 in
    while not (P.stopped clock) do
      let b = !i land (pool - 1) * stride in
      incr i;
      let g = a.{b + 1} * group_size in
      if a.{b} = 1 then
        P.atomically c ~cls:1 ~clock ~config ~ops:(4 * transfers) (fun txn ->
            for p = 0 to transfers - 1 do
              let src = g + a.{b + 2 + (3 * p)} and dst = g + a.{b + 3 + (3 * p)} in
              let amount = a.{b + 4 + (3 * p)} in
              ignore (ops.T.Map.put txn src (P.value (ops.T.Map.get txn src) - amount));
              ignore (ops.T.Map.put txn dst (P.value (ops.T.Map.get txn dst) + amount))
            done)
      else
        let sum =
          P.atomically c ~cls:0 ~clock ~config ~ops:group_size (fun txn ->
              let sum = ref 0 in
              for k = g to g + group_size - 1 do
                sum := !sum + P.value (ops.T.Map.get txn k)
              done;
              if !sum <> group_size * init then Atomic.incr st.violations;
              !sum)
        in
        if sum <> group_size * init then Atomic.incr st.committed_bad
    done

  let run st ~seconds ~traced ~poll =
    let cs = List.init domains (P.ctx ~seconds ~traced) in
    let before = [| Atomic.get st.violations; Atomic.get st.committed_bad |] in
    let w =
      P.measure ~poll ~warmup:0.5 ~seconds
        (List.map
           (fun c -> worker st c (if traced then P.timed_map c st.ops else st.ops))
           cs)
    in
    let rd = P.dist_of cs (fun c -> c.P.lat.(0)) and wr = P.dist_of cs (fun c -> c.P.lat.(1)) in
    let rate, e2e =
      P.e2e ~seconds w cs
        (List.concat_map (fun c -> [ (c.P.lat.(0), c.P.lat_at.(0)); (c.P.lat.(1), c.P.lat_at.(1)) ]) cs)
    in
    let violations = Atomic.get st.violations - before.(0) in
    let bad = Atomic.get st.committed_bad - before.(1) in
    {
      P.attempted = Array.length rd + Array.length wr;
      failed = bad;
      problems =
        (if violations > 0 then
           [
             Printf.sprintf
               "opacity: %d read attempts saw a group sum other than %d, and %d of them committed it"
               violations (group_size * init) bad;
           ]
         else []);
      rate;
      metrics =
        e2e
        @ [
            P.pct "txn.read_p50_us" rd 0.5;
            P.pct "txn.read_p99_us" rd 0.99;
            P.pct "txn.write_p50_us" wr 0.5;
            P.pct "txn.write_p99_us" wr 0.99;
          ]
        @ (if traced then P.layer_metrics w cs else []);
      ctxs = cs;
    }

  (* Every group still sums to its initial total. *)
  let finish st =
    let sums =
      Stm.atomically ~config:st.config (fun txn ->
          Array.init groups (fun g ->
              let s = ref 0 in
              for k = g * group_size to ((g + 1) * group_size) - 1 do
                s := !s + P.value (st.ops.T.Map.get txn k)
              done;
              !s))
    in
    let bad = Array.fold_left (fun n s -> if s <> group_size * init then n + 1 else n) 0 sums in
    ((if bad > 0 then [ Printf.sprintf "%d of %d groups lost their sum" bad groups ] else []), [])
end

module Eager_eager = Make (struct let mode = Stm.Eager_eager end)
module Lazy_lazy = Make (struct let mode = Stm.Lazy_lazy end)
