(* Bitset dataflow sets. *)

open Qcomp_support

let check = Alcotest.check

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let unit_cases =
  [
    Alcotest.test_case "add/mem/remove" `Quick (fun () ->
        let s = Bitset.create 100 in
        Bitset.add s 0;
        Bitset.add s 63;
        Bitset.add s 64;
        Bitset.add s 99;
        check Alcotest.bool "0" true (Bitset.mem s 0);
        check Alcotest.bool "63" true (Bitset.mem s 63);
        check Alcotest.bool "64" true (Bitset.mem s 64);
        check Alcotest.bool "1" false (Bitset.mem s 1);
        Bitset.remove s 63;
        check Alcotest.bool "63 gone" false (Bitset.mem s 63);
        check Alcotest.int "count" 3 (Bitset.count s));
    Alcotest.test_case "union_into reports change" `Quick (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 10 in
        Bitset.add a 3;
        check Alcotest.bool "first union changes" true (Bitset.union_into ~src:a b);
        check Alcotest.bool "second union stable" false (Bitset.union_into ~src:a b);
        check Alcotest.bool "b has 3" true (Bitset.mem b 3));
    Alcotest.test_case "equal and copy" `Quick (fun () ->
        let a = Bitset.create 70 in
        Bitset.add a 69;
        let b = Bitset.copy a in
        check Alcotest.bool "copies equal" true (Bitset.equal a b);
        Bitset.add b 0;
        check Alcotest.bool "diverged" false (Bitset.equal a b));
    Alcotest.test_case "clear" `Quick (fun () ->
        let a = Bitset.create 10 in
        Bitset.add a 5;
        Bitset.clear a;
        check Alcotest.int "count 0" 0 (Bitset.count a));
    Alcotest.test_case "iter ascending" `Quick (fun () ->
        let a = Bitset.create 200 in
        List.iter (Bitset.add a) [ 150; 3; 64; 65 ];
        let out = ref [] in
        Bitset.iter (fun i -> out := i :: !out) a;
        check Alcotest.(list int) "order" [ 3; 64; 65; 150 ] (List.rev !out));
  ]

let props =
  [
    prop "model: mem after adds" QCheck2.Gen.(list (int_bound 127)) (fun l ->
        let s = Bitset.create 128 in
        List.iter (Bitset.add s) l;
        List.for_all (Bitset.mem s) l
        && Bitset.count s = List.length (List.sort_uniq compare l));
    prop "to_list sorted and unique" QCheck2.Gen.(list (int_bound 127)) (fun l ->
        let s = Bitset.create 128 in
        List.iter (Bitset.add s) l;
        Bitset.to_list s = List.sort_uniq compare l);
    prop "union_diff_into = union of the difference"
      QCheck2.Gen.(triple (list (int_bound 127)) (list (int_bound 127)) (list (int_bound 127)))
      (fun (d, a, m) ->
        let set l =
          let s = Bitset.create 128 in
          List.iter (Bitset.add s) l;
          s
        in
        let dst = set d in
        let changed = Bitset.union_diff_into ~src:(set a) ~minus:(set m) dst in
        let expect =
          List.sort_uniq compare (d @ List.filter (fun x -> not (List.mem x m)) a)
        in
        Bitset.to_list dst = expect
        && changed = (List.length expect <> List.length (List.sort_uniq compare d)));
    prop "fold counts" QCheck2.Gen.(list (int_bound 127)) (fun l ->
        let s = Bitset.create 128 in
        List.iter (Bitset.add s) l;
        Bitset.fold (fun _ n -> n + 1) s 0 = Bitset.count s);
  ]

let suite = unit_cases @ props
