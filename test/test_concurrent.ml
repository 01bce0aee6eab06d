(** Tests for the thread-safe base structures, including qcheck
    property tests against purely functional models. *)

open Util
module C = Proust_concurrent

(* ------------------------------------------------------------------ *)
(* Rw_lock                                                              *)

(* [Rw_lock] deadlines are points on the monotonic clock. *)
let soon () = Clock.now_mono () +. 0.5
let now_ish () = Clock.now_mono () +. 0.02

let test_rw_shared_readers () =
  let l = C.Rw_lock.create () in
  check cb "r1" true (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  check cb "r2" true (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check ci "two readers" 2 (C.Rw_lock.reader_count l)

let test_rw_writer_excludes () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "reader blocked" false
    (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(now_ish ()));
  check cb "writer blocked" false
    (C.Rw_lock.try_acquire_write l ~owner:2 ~deadline:(now_ish ()));
  C.Rw_lock.release_all l ~owner:1;
  check cb "free after release" true
    (C.Rw_lock.try_acquire_write l ~owner:2 ~deadline:(soon ()))

let test_rw_reentrant () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "write reentrant" true
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "read under own write" true
    (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  C.Rw_lock.release_all l ~owner:1;
  check (Alcotest.option ci) "released" None (C.Rw_lock.writer l)

let test_rw_upgrade () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  check cb "sole reader upgrades" true
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  C.Rw_lock.release_all l ~owner:1;
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  assert (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check cb "upgrade blocked by other reader" false
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(now_ish ()))

let test_rw_holder_introspection () =
  let l = C.Rw_lock.create () in
  check cb "fresh lock held by nobody" false (C.Rw_lock.holds l ~owner:1);
  check (Alcotest.option ci) "fresh lock has no writer" None (C.Rw_lock.writer l);
  check ci "fresh lock has no readers" 0 (C.Rw_lock.reader_count l);
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  assert (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check cb "reader 1 holds" true (C.Rw_lock.holds l ~owner:1);
  check cb "reader 2 holds" true (C.Rw_lock.holds l ~owner:2);
  check cb "stranger does not hold" false (C.Rw_lock.holds l ~owner:3);
  check (Alcotest.option ci) "readers are not the writer" None
    (C.Rw_lock.writer l);
  C.Rw_lock.release_all l ~owner:2;
  check cb "released reader no longer holds" false (C.Rw_lock.holds l ~owner:2);
  check cb "remaining reader still holds" true (C.Rw_lock.holds l ~owner:1);
  (* Sole remaining reader upgrades; introspection must follow. *)
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check (Alcotest.option ci) "writer identity reported" (Some 1)
    (C.Rw_lock.writer l);
  check cb "writer holds in either-mode query" true (C.Rw_lock.holds l ~owner:1);
  C.Rw_lock.release_all l ~owner:1;
  check cb "holds cleared after release_all" false (C.Rw_lock.holds l ~owner:1);
  check (Alcotest.option ci) "writer cleared after release_all" None
    (C.Rw_lock.writer l);
  check ci "reader count cleared after release_all" 0 (C.Rw_lock.reader_count l)

let test_rw_contention () =
  let l = C.Rw_lock.create () in
  let counter = ref 0 in
  spawn_all 4 (fun i ->
      for _ = 1 to 200 do
        while not (C.Rw_lock.try_acquire_write l ~owner:i ~deadline:(soon ())) do
          ()
        done;
        incr counter;
        C.Rw_lock.release_all l ~owner:i
      done);
  check ci "mutual exclusion" 800 !counter

(* ------------------------------------------------------------------ *)
(* Striped counter / nn counter                                         *)

let test_striped_counter () =
  let c = C.Striped_counter.create () in
  spawn_all 4 (fun _ ->
      for _ = 1 to 10_000 do
        C.Striped_counter.incr c
      done);
  check ci "sum" 40_000 (C.Striped_counter.get c);
  C.Striped_counter.add c (-40_000);
  check ci "add negative" 0 (C.Striped_counter.get c);
  C.Striped_counter.incr c;
  C.Striped_counter.reset c;
  check ci "reset" 0 (C.Striped_counter.get c)

let test_nn_counter () =
  let c = C.Nn_counter.create () in
  check cb "decr at 0 fails" false (C.Nn_counter.try_decr c);
  C.Nn_counter.incr c;
  C.Nn_counter.incr c;
  check ci "value" 2 (C.Nn_counter.get c);
  check cb "decr ok" true (C.Nn_counter.try_decr c);
  check ci "after decr" 1 (C.Nn_counter.get c)

let test_nn_counter_never_negative () =
  let c = C.Nn_counter.create ~init:100 () in
  spawn_all 4 (fun _ ->
      for _ = 1 to 1_000 do
        ignore (C.Nn_counter.try_decr c)
      done);
  check ci "floor at zero" 0 (C.Nn_counter.get c)

(* ------------------------------------------------------------------ *)
(* Chashmap                                                             *)

let test_chashmap_basics () =
  let m = C.Chashmap.create () in
  check copt_i "get empty" None (C.Chashmap.get m 1);
  check copt_i "first put" None (C.Chashmap.put m 1 10);
  check copt_i "second put returns old" (Some 10) (C.Chashmap.put m 1 11);
  check copt_i "get" (Some 11) (C.Chashmap.get m 1);
  check cb "contains" true (C.Chashmap.contains m 1);
  check ci "size" 1 (C.Chashmap.size m);
  check copt_i "remove returns old" (Some 11) (C.Chashmap.remove m 1);
  check copt_i "remove absent" None (C.Chashmap.remove m 1);
  check ci "size after remove" 0 (C.Chashmap.size m)

let test_chashmap_put_if_absent () =
  let m = C.Chashmap.create () in
  check copt_i "absent" None (C.Chashmap.put_if_absent m 1 10);
  check copt_i "present" (Some 10) (C.Chashmap.put_if_absent m 1 99);
  check copt_i "unchanged" (Some 10) (C.Chashmap.get m 1)

let test_chashmap_compute () =
  let m = C.Chashmap.create () in
  ignore (C.Chashmap.compute m 1 (fun _ -> Some 5));
  check copt_i "computed in" (Some 5) (C.Chashmap.get m 1);
  ignore (C.Chashmap.compute m 1 (function Some v -> Some (v + 1) | None -> None));
  check copt_i "incremented" (Some 6) (C.Chashmap.get m 1);
  ignore (C.Chashmap.compute m 1 (fun _ -> None));
  check copt_i "removed" None (C.Chashmap.get m 1)

let test_chashmap_fold_clear () =
  let m = C.Chashmap.create () in
  for i = 1 to 10 do
    ignore (C.Chashmap.put m i i)
  done;
  check ci "fold sum" 55 (C.Chashmap.fold (fun _ v acc -> acc + v) m 0);
  check ci "bindings" 10 (List.length (C.Chashmap.bindings m));
  C.Chashmap.clear m;
  check ci "cleared" 0 (C.Chashmap.size m);
  check cb "is_empty" true (C.Chashmap.is_empty m)

(* A raise inside a stripe's critical section must release the stripe:
   another domain's [put]/[get] on the same key then returns, and the
   failed [compute] left [size] as it was.  A leaked lock would block
   that domain forever, so wait on it with a deadline, not a join. *)
let test_chashmap_raise_unlocks () =
  let m = C.Chashmap.create () in
  ignore (C.Chashmap.put m 1 10);
  (match C.Chashmap.compute m 1 (fun _ -> raise Exit) with
  | _ -> Alcotest.fail "compute should re-raise"
  | exception Exit -> ());
  let done_ = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let old = C.Chashmap.put m 1 11 in
        let now = C.Chashmap.get m 1 in
        Atomic.set done_ true;
        (old, now))
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get done_) then
    Alcotest.fail "stripe still locked after a raise in compute";
  let old, now = Domain.join d in
  check copt_i "put saw the binding compute left" (Some 10) old;
  check copt_i "get sees the put" (Some 11) now;
  check ci "size unchanged" 1 (C.Chashmap.size m);
  (match C.Chashmap.iter (fun _ _ -> raise Exit) m with
  | () -> Alcotest.fail "iter should re-raise"
  | exception Exit -> ());
  check copt_i "iter released its stripe" (Some 11) (C.Chashmap.get m 1)

let test_chashmap_concurrent () =
  let m = C.Chashmap.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 2_499 do
        ignore (C.Chashmap.put m ((d * 2_500) + i) i)
      done);
  check ci "all inserted" 10_000 (C.Chashmap.size m);
  spawn_all 4 (fun d ->
      for i = 0 to 2_499 do
        ignore (C.Chashmap.remove m ((d * 2_500) + i))
      done);
  check ci "all removed" 0 (C.Chashmap.size m)

(* ------------------------------------------------------------------ *)
(* Hamt (property-tested against Stdlib Map)                            *)

module IntMap = Map.Make (Int)

let hamt_ops_gen =
  QCheck2.Gen.(
    list
      (pair (int_range 0 200)
         (oneof [ return `Remove; map (fun v -> `Put v) (int_range 0 1000) ])))

let apply_hamt ops =
  List.fold_left
    (fun (h, m) (k, op) ->
      match op with
      | `Put v ->
          ( fst (C.Hamt.add ~hash:Hashtbl.hash ~equal:Int.equal k v h),
            IntMap.add k v m )
      | `Remove ->
          ( fst (C.Hamt.remove ~hash:Hashtbl.hash ~equal:Int.equal k h),
            IntMap.remove k m ))
    (C.Hamt.empty, IntMap.empty) ops

let prop_hamt_model ops =
  let h, m = apply_hamt ops in
  IntMap.for_all
    (fun k v -> C.Hamt.find ~hash:Hashtbl.hash ~equal:Int.equal k h = Some v)
    m
  && C.Hamt.cardinal h = IntMap.cardinal m
  && C.Hamt.fold
       (fun k v ok -> ok && IntMap.find_opt k m = Some v)
       h true

let prop_hamt_well_formed ops =
  let h, _ = apply_hamt ops in
  C.Hamt.well_formed ~hash:Hashtbl.hash h

let test_hamt_collisions () =
  (* Same hash for every key forces collision buckets. *)
  let hash _ = 7 in
  let equal = Int.equal in
  let h, old = C.Hamt.add ~hash ~equal 1 10 C.Hamt.empty in
  check copt_i "fresh" None old;
  let h, _ = C.Hamt.add ~hash ~equal 2 20 h in
  let h, old = C.Hamt.add ~hash ~equal 1 11 h in
  check copt_i "replaced in bucket" (Some 10) old;
  check copt_i "find 1" (Some 11) (C.Hamt.find ~hash ~equal 1 h);
  check copt_i "find 2" (Some 20) (C.Hamt.find ~hash ~equal 2 h);
  let h, old = C.Hamt.remove ~hash ~equal 1 h in
  check copt_i "removed" (Some 11) old;
  check copt_i "gone" None (C.Hamt.find ~hash ~equal 1 h);
  check ci "one left" 1 (C.Hamt.cardinal h)

(* ------------------------------------------------------------------ *)
(* Ctrie                                                                *)

let test_ctrie_basics () =
  let c = C.Ctrie.create () in
  check copt_i "empty" None (C.Ctrie.get c 1);
  check copt_i "put fresh" None (C.Ctrie.put c 1 10);
  check copt_i "put old" (Some 10) (C.Ctrie.put c 1 11);
  check copt_i "put_if_absent" (Some 11) (C.Ctrie.put_if_absent c 1 99);
  check ci "size" 1 (C.Ctrie.size c);
  check copt_i "remove" (Some 11) (C.Ctrie.remove c 1);
  check cb "empty again" true (C.Ctrie.is_empty c)

let test_ctrie_snapshot_isolation () =
  let c = C.Ctrie.create () in
  for i = 0 to 99 do
    ignore (C.Ctrie.put c i i)
  done;
  let snap = C.Ctrie.snapshot c in
  for i = 0 to 99 do
    ignore (C.Ctrie.remove c i)
  done;
  check ci "live empty" 0 (C.Ctrie.size c);
  check ci "snapshot intact" 100 (C.Ctrie.Snapshot.size snap);
  check copt_i "snapshot find" (Some 42) (C.Ctrie.Snapshot.find snap 42);
  (* Pure updates on the snapshot do not disturb the live map. *)
  let snap2, old = C.Ctrie.Snapshot.add snap 1000 1 in
  check copt_i "pure add" None old;
  check ci "snapshot2 size" 101 (C.Ctrie.Snapshot.size snap2);
  check copt_i "live unaffected" None (C.Ctrie.get c 1000)

let test_ctrie_concurrent () =
  let c = C.Ctrie.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 1_999 do
        ignore (C.Ctrie.put c ((d * 2_000) + i) i)
      done);
  check ci "concurrent puts" 8_000 (C.Ctrie.size c);
  let snaps = Array.make 4 None in
  spawn_all 4 (fun d ->
      for i = 0 to 1_999 do
        if i = 1_000 then snaps.(d) <- Some (C.Ctrie.snapshot c);
        ignore (C.Ctrie.remove c ((d * 2_000) + i))
      done);
  check ci "concurrent removes" 0 (C.Ctrie.size c);
  Array.iter
    (fun s ->
      match s with
      | None -> Alcotest.fail "missing snapshot"
      | Some s ->
          check cb "mid-flight snapshot plausible" true
            (C.Ctrie.Snapshot.size s > 0 && C.Ctrie.Snapshot.size s <= 8_000))
    snaps

let test_ctrie_cas_root () =
  let c = C.Ctrie.create () in
  ignore (C.Ctrie.put c 1 1);
  let s = C.Ctrie.snapshot c in
  let s', _ = C.Ctrie.Snapshot.add s 2 2 in
  check cb "cas succeeds on unchanged" true
    (C.Ctrie.compare_and_swap_root c ~expected:s ~desired:s');
  check copt_i "installed" (Some 2) (C.Ctrie.get c 2);
  check cb "cas fails on stale" false
    (C.Ctrie.compare_and_swap_root c ~expected:s ~desired:s')

(* ------------------------------------------------------------------ *)
(* Pheap                                                                *)

let prop_pheap_sorted l =
  let h = C.Pheap.of_list ~cmp:Int.compare l in
  C.Pheap.to_sorted_list ~cmp:Int.compare h = List.sort Int.compare l

let prop_pheap_well_formed l =
  C.Pheap.well_formed ~cmp:Int.compare (C.Pheap.of_list ~cmp:Int.compare l)

let test_pheap_merge_remove () =
  let cmp = Int.compare in
  let a = C.Pheap.of_list ~cmp [ 5; 1; 9 ] in
  let b = C.Pheap.of_list ~cmp [ 2; 7 ] in
  let m = C.Pheap.merge ~cmp a b in
  check copt_i "min of merge" (Some 1) (C.Pheap.find_min m);
  check ci "merged size" 5 (C.Pheap.size m);
  check cb "mem" true (C.Pheap.mem ~cmp 7 m);
  let m', removed = C.Pheap.remove ~cmp 7 m in
  check cb "removed" true removed;
  check cb "no longer mem" false (C.Pheap.mem ~cmp 7 m');
  let _, removed = C.Pheap.remove ~cmp 100 m' in
  check cb "remove absent" false removed

(* ------------------------------------------------------------------ *)
(* Cow_pqueue                                                           *)

let test_cow_pqueue_basics () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  check copt_i "peek empty" None (C.Cow_pqueue.peek q);
  check copt_i "poll empty" None (C.Cow_pqueue.poll q);
  C.Cow_pqueue.add q 5;
  C.Cow_pqueue.add q 1;
  C.Cow_pqueue.add q 3;
  check copt_i "peek min" (Some 1) (C.Cow_pqueue.peek q);
  check ci "size" 3 (C.Cow_pqueue.size q);
  check cb "contains" true (C.Cow_pqueue.contains q 3);
  check cb "remove" true (C.Cow_pqueue.remove q 3);
  check cb "remove gone" false (C.Cow_pqueue.remove q 3);
  check copt_i "poll" (Some 1) (C.Cow_pqueue.poll q);
  check copt_i "poll" (Some 5) (C.Cow_pqueue.poll q);
  check cb "empty" true (C.Cow_pqueue.is_empty q)

let test_cow_pqueue_snapshot () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  List.iter (C.Cow_pqueue.add q) [ 4; 2; 6 ];
  let s = C.Cow_pqueue.snapshot q in
  ignore (C.Cow_pqueue.poll q);
  check clist_i "snapshot unchanged" [ 2; 4; 6 ]
    (C.Cow_pqueue.Snapshot.to_sorted_list s);
  let s' = C.Cow_pqueue.Snapshot.add s 1 in
  check copt_i "pure add" (Some 1) (C.Cow_pqueue.Snapshot.peek s');
  check ci "live not disturbed" 2 (C.Cow_pqueue.size q)

let test_cow_pqueue_concurrent () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        C.Cow_pqueue.add q ((i * 4) + d)
      done);
  let out = ref [] in
  for _ = 1 to 2_000 do
    out := Option.get (C.Cow_pqueue.poll q) :: !out
  done;
  check clist_i "drained in order" (List.init 2_000 Fun.id) (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Blocking_pqueue                                                      *)

let test_blocking_pqueue_basics () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  check copt_i "poll empty" None (C.Blocking_pqueue.poll q);
  let h5 = C.Blocking_pqueue.add q 5 in
  let _ = C.Blocking_pqueue.add q 2 in
  let h8 = C.Blocking_pqueue.add q 8 in
  check ci "value of handle" 5 (C.Blocking_pqueue.handle_value h5);
  check copt_i "peek" (Some 2) (C.Blocking_pqueue.peek q);
  check cb "delete live" true (C.Blocking_pqueue.delete q h5);
  check cb "delete dead" false (C.Blocking_pqueue.delete q h5);
  check ci "size skips dead" 2 (C.Blocking_pqueue.size q);
  check copt_i "poll" (Some 2) (C.Blocking_pqueue.poll q);
  check copt_i "poll skips deleted" (Some 8) (C.Blocking_pqueue.poll q);
  check cb "poll claims handle" false (C.Blocking_pqueue.delete q h8)

let test_blocking_pqueue_compaction () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  let handles = Array.init 200 (fun i -> C.Blocking_pqueue.add q i) in
  Array.iteri
    (fun i h -> if i > 0 then ignore (C.Blocking_pqueue.delete q h))
    handles;
  check ci "one live" 1 (C.Blocking_pqueue.size q);
  check copt_i "live min" (Some 0) (C.Blocking_pqueue.peek q);
  check clist_i "sorted list" [ 0 ] (C.Blocking_pqueue.to_sorted_list q)

let test_blocking_pqueue_concurrent () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        ignore (C.Blocking_pqueue.add q ((i * 4) + d))
      done);
  check ci "all in" 2_000 (C.Blocking_pqueue.size q);
  let popped = Atomic.make 0 in
  spawn_all 4 (fun _ ->
      for _ = 1 to 500 do
        if C.Blocking_pqueue.poll q <> None then Atomic.incr popped
      done);
  check ci "all popped" 2_000 (Atomic.get popped);
  check cb "empty" true (C.Blocking_pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Lf_list                                                              *)

let test_lf_list_basics () =
  let s = C.Lf_list.create () in
  check cb "add" true (C.Lf_list.add s 5);
  check cb "dup" false (C.Lf_list.add s 5);
  check cb "add 2" true (C.Lf_list.add s 2);
  check cb "contains" true (C.Lf_list.contains s 5);
  check cb "not contains" false (C.Lf_list.contains s 4);
  check clist_i "sorted" [ 2; 5 ] (C.Lf_list.to_list s);
  check cb "remove" true (C.Lf_list.remove s 5);
  check cb "remove absent" false (C.Lf_list.remove s 5);
  check clist_i "after remove" [ 2 ] (C.Lf_list.to_list s)

let test_lf_list_concurrent_disjoint () =
  let s = C.Lf_list.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 999 do
        ignore (C.Lf_list.add s ((i * 4) + d))
      done);
  check ci "size" 4_000 (C.Lf_list.size s);
  check clist_i "all present sorted" (List.init 4_000 Fun.id) (C.Lf_list.to_list s)

let test_lf_list_concurrent_contended () =
  (* All domains fight over the same small key space; final content
     must equal the set of keys with odd add-remove imbalance... here
     we just require: no crashes, and to_list is sorted+duplicate-free. *)
  let s = C.Lf_list.create () in
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 2_000 do
        let k = Random.State.int rng 32 in
        if Random.State.bool rng then ignore (C.Lf_list.add s k)
        else ignore (C.Lf_list.remove s k)
      done);
  let l = C.Lf_list.to_list s in
  check cb "sorted, no dups" true (List.sort_uniq Int.compare l = l)

let suite =
  [
    test "rw_lock shared readers" test_rw_shared_readers;
    test "rw_lock writer excludes" test_rw_writer_excludes;
    test "rw_lock reentrant" test_rw_reentrant;
    test "rw_lock upgrade" test_rw_upgrade;
    test "rw_lock holder introspection" test_rw_holder_introspection;
    slow "rw_lock contention" test_rw_contention;
    slow "striped counter" test_striped_counter;
    test "nn counter" test_nn_counter;
    slow "nn counter floor" test_nn_counter_never_negative;
    test "chashmap basics" test_chashmap_basics;
    test "chashmap put_if_absent" test_chashmap_put_if_absent;
    test "chashmap compute" test_chashmap_compute;
    test "chashmap fold/clear" test_chashmap_fold_clear;
    test "chashmap raise unlocks stripe" test_chashmap_raise_unlocks;
    slow "chashmap concurrent" test_chashmap_concurrent;
    qcheck "hamt matches Map model" hamt_ops_gen prop_hamt_model;
    qcheck "hamt well-formed" hamt_ops_gen prop_hamt_well_formed;
    test "hamt collision buckets" test_hamt_collisions;
    test "ctrie basics" test_ctrie_basics;
    test "ctrie snapshot isolation" test_ctrie_snapshot_isolation;
    slow "ctrie concurrent" test_ctrie_concurrent;
    test "ctrie cas root" test_ctrie_cas_root;
    qcheck "pheap sorts" QCheck2.Gen.(list small_int) prop_pheap_sorted;
    qcheck "pheap heap-ordered" QCheck2.Gen.(list small_int)
      prop_pheap_well_formed;
    test "pheap merge/remove" test_pheap_merge_remove;
    test "cow pqueue basics" test_cow_pqueue_basics;
    test "cow pqueue snapshot" test_cow_pqueue_snapshot;
    slow "cow pqueue concurrent" test_cow_pqueue_concurrent;
    test "blocking pqueue basics" test_blocking_pqueue_basics;
    test "blocking pqueue compaction" test_blocking_pqueue_compaction;
    slow "blocking pqueue concurrent" test_blocking_pqueue_concurrent;
    test "lf_list basics" test_lf_list_basics;
    slow "lf_list concurrent disjoint" test_lf_list_concurrent_disjoint;
    slow "lf_list concurrent contended" test_lf_list_concurrent_contended;
  ]
