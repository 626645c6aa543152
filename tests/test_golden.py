"""Golden report digests: the SHA-256 of each call's stdout, and its exit code.

The calls run in order, in-process, with a fresh directory as the cwd and
relative paths, because analyze echoes its input path.  ``write_inputs``
writes the inputs; ``run`` writes the certificates of each analyze report,
and the documents of leray and collapse, to the files that the verify
calls read.  Any change to a report's bytes or an exit code shows here,
naming the call.  After an intended format change, rewrite the table with

    python3 tests/regen_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from comatch import jsonio
from comatch.cli import main
from comatch.randsys import random_system

RANDOM_DRAWS = 30

# The calls before the verify calls, which replay every certificate written.
CALLS = [
    *(f"analyze cs{m}.json" for m in (3, 4, 5, 6)),
    "analyze ham4.json",
    "analyze circles.json",
    "analyze torus.json",
    "analyze nerve-ham4.json",
    *(f"analyze r{i:02d}.json" for i in range(RANDOM_DRAWS)),
    "homology torus.json",
    "leray torus.json 2",
    "collapse torus.json 3",
    "collapse torus.json 3 --budget-nodes 50",
    "check-theorems --systems 10",
]


def write_inputs() -> None:
    """Write every input file into the current directory."""
    for argv in (
        *(f"generate cycle-sharpness {m} --out cs{m}.json" for m in (3, 4, 5, 6)),
        "generate hamming 4 1 --out ham4.json",
        "generate circles --out circles.json",
        "generate torus-grid 4 2 --out torus.json",
        "nerve ham4.json --out nerve-ham4.json",
    ):
        assert main(argv.split()) == 0, argv
    rng = random.Random(2026)
    for i in range(RANDOM_DRAWS):
        doc = jsonio.set_system_to_doc(random_system(rng))
        Path(f"r{i:02d}.json").write_text(jsonio.dump_canonical(doc))


def run(call: str) -> tuple[int, str]:
    """The call's exit code and the SHA-256 of its stdout.  Each certificate
    of an analyze report goes to ``<input stem>.<name>.cert.json``, and a
    leray or collapse document that carries one goes whole to
    ``<input stem>.<command><d>.cert.json``."""
    argv = call.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    doc = json.loads(text) if text else {}
    stem = argv[1].removesuffix(".json")
    certificates = doc.get("certificates", {}) if argv[0] == "analyze" else {}
    if {"certificate", "witness"} & doc.keys():
        certificates = {argv[0] + argv[2]: doc}
    for kind, cert in certificates.items():
        Path(f"{stem}.{kind}.cert.json").write_text(jsonio.dump_canonical(cert))
    return code, hashlib.sha256(text.encode()).hexdigest()


def verify_calls() -> list[str]:
    """A verify call for each certificate written, against its input."""
    return [
        f"verify {path.name} {path.name.split('.')[0]}.json"
        for path in sorted(Path().glob("*.cert.json"))
    ]


# (call, exit code, SHA-256 of stdout), in the order they run.
GOLDEN = [
    ("analyze cs3.json", 0,
     "bdd4671e184886e3924104dee1a50f6d290c7995ee677b9135860a20be7b13cc"),
    ("analyze cs4.json", 0,
     "f21c0fca916e227985dbcbe4685be3448e838e551bac15c5e804e6a8f3bfb8bc"),
    ("analyze cs5.json", 0,
     "4b24379d9b840cf864982e2f78767e7c38cefdf0079a8b0390cf1de02b018ade"),
    ("analyze cs6.json", 0,
     "f86befcebc101f3feb2331b943a276cb711029225c4d69b2969908f21e664549"),
    ("analyze ham4.json", 0,
     "32818c644ac3d63bd6a6a3d872f979fa621820feca75a0d1baddf95e922db3ca"),
    ("analyze circles.json", 0,
     "23cf153079a55e0620b8b828f80ba7fe6ae7e1aef10e73e6d2c081a5edec2d7d"),
    ("analyze torus.json", 0,
     "3764191dc009d5e4672f5e3ff578696e9475a525849b2f7503fa0ffccf3ca33b"),
    ("analyze nerve-ham4.json", 0,
     "5fc5ce07c1d3e8725cfaf26c525b503d7aae5a0ef46b64199007ff48cc624fb2"),
    ("analyze r00.json", 0,
     "68232a98c818f4f81d87bbc38d3531b1a270212339b560eefa0e974fdcb153fd"),
    ("analyze r01.json", 0,
     "da18936bcc928771cdb0c0c5f35d7fa56ed03a286b6c719849fd0b4dd9f6e3f7"),
    ("analyze r02.json", 0,
     "8de8fcb3b53537b6a680df63e15535997182f0a1f99093f2ecfb79c3abfb9286"),
    ("analyze r03.json", 0,
     "20b47e10f85d1a6e573a6f43a7d2a1230857dfba18aa333205414637ce5b622d"),
    ("analyze r04.json", 0,
     "76130e25189bd7eceba71b8fa4a9ab6f94d618bcabbc6c2046dbeb8a7f954528"),
    ("analyze r05.json", 0,
     "170344c2191161eb903baa2ec69685992e0df9b8cb8a3c2f33348a289a6317f5"),
    ("analyze r06.json", 0,
     "3172c7679b3f3b0632e5035fc0fc572cf606b297284b9c90d73b017cf5d509c7"),
    ("analyze r07.json", 0,
     "1cd7e21afdf23bb2451a318da0a86bee27be741ada91a0aff4aeb805624a7776"),
    ("analyze r08.json", 0,
     "84ca325fb8accee365ccb21bf038dd67ea9831f7bf75cc0ddda23d6502063b8c"),
    ("analyze r09.json", 0,
     "fd8e28ca7d3b28178da2d4b3eede781aac5ff7ed72287af4a5fea36726e8179f"),
    ("analyze r10.json", 0,
     "58d1528f2ba47f6189a9d20d3fbed3c22dfad75fa3590ec94b43aae141f6d528"),
    ("analyze r11.json", 0,
     "2a64682c7e04e3bb4ec32758861ac88b17a56c6f607b7709390762f93707edb4"),
    ("analyze r12.json", 0,
     "6b1e46c2230d56a93f68d1173ec266afb5fca53094c20073674f19a1994e1046"),
    ("analyze r13.json", 0,
     "fd1c29b58fd565091b35017759486fd775b5685ccf1bdd5cf80ae325aadfd36c"),
    ("analyze r14.json", 0,
     "5a616910e0d645cf7a4bf69982c84bc80391cca46806dbc493b29cf36c0cc0cd"),
    ("analyze r15.json", 0,
     "4578c1a460052b5688a1a8bea833cf2410ad90c9f560d4c9602669d9f3109c55"),
    ("analyze r16.json", 0,
     "655be0ae78815d7d7c7f3a31efeec116715e3b638288c45b6a087bb38b13c529"),
    ("analyze r17.json", 0,
     "51537115a793696559c47845a5a68e1cc02274199f929af2f7c36abc66f84608"),
    ("analyze r18.json", 0,
     "7b98a07c566d540e07443e499c670bd5874c48ed56a6cf85b530a0985e746153"),
    ("analyze r19.json", 0,
     "d4db59d752838f776e5b5b3c7b01faf51a444b04bddcb4fc6e2407e63c1e2e9d"),
    ("analyze r20.json", 0,
     "93a59234a84b742e5500cd7671dfc8294a94be8d1dacb62e921a300bf4208837"),
    ("analyze r21.json", 0,
     "d1c9b46aff3856d72ef97e123a6577d7f4a53e2b15a1c5e9ea65ee1295a6bf1d"),
    ("analyze r22.json", 0,
     "5a8220b0623206d4cd382f2470eb8848c2cdd187985d76db9f1d0840bd8fc209"),
    ("analyze r23.json", 0,
     "d9225c518602a3e07007029f0cf02de0287ba46a374816d3ba091cf34eec4917"),
    ("analyze r24.json", 0,
     "5c42bcc15289e820e96233236753f5fb95f735e677534fb03f5e2f9b87f44276"),
    ("analyze r25.json", 0,
     "79788a92b8ca1c81eaeec2f610bfe1f0a7cf9cb2f658053486cc059298dedd35"),
    ("analyze r26.json", 0,
     "68363e0a2cdc85ef4d0da99b546bd7cc6718e848161b2ec2bafc0c31fc159bc3"),
    ("analyze r27.json", 0,
     "8e68a3e64a80ca19f02efe2cf4294ae838daae31f89a442631817748278b0f25"),
    ("analyze r28.json", 0,
     "81a9b8cc1ce518a8f8ea2acbecfcc3ad52c658a21b068eeb105b3ead5f23c4ef"),
    ("analyze r29.json", 0,
     "256d2eaa4815fd7d466c221a017313d6a89e8e56d4d94cd1809d28cae8cae4f5"),
    ("homology torus.json", 0,
     "816e63b3adc3f042f6017b11293e8b6e437a4c2263dbd780c256c62b0b395934"),
    ("leray torus.json 2", 0,
     "b489ddfa4bec5bfd6e96bfe94596ae7d62b656c7a2cb6127de79f49aa74cec00"),
    ("collapse torus.json 3", 0,
     "8ed8789adacf022321962a4873a9b3f88d2f336e7ec011b5c753538315d74669"),
    ("collapse torus.json 3 --budget-nodes 50", 3,
     "56842fd124f2419257830fb102dc404524b3c01b650a8f81c2e6e235285593a7"),
    ("check-theorems --systems 10", 0,
     "6e5425889cad8cf4f459c1af8fdc7dea58ed27185b2c4f48ee48140a1d829539"),
    ("verify circles.comatching.cert.json circles.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify circles.comatching_with_intersection.cert.json circles.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify circles.refuting_instance.cert.json circles.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify cs3.comatching.cert.json cs3.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify cs3.comatching_with_intersection.cert.json cs3.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify cs3.refuting_instance.cert.json cs3.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify cs4.comatching.cert.json cs4.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify cs4.comatching_with_intersection.cert.json cs4.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify cs4.refuting_instance.cert.json cs4.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify cs5.comatching.cert.json cs5.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify cs5.comatching_with_intersection.cert.json cs5.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify cs5.refuting_instance.cert.json cs5.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify cs6.comatching.cert.json cs6.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify cs6.comatching_with_intersection.cert.json cs6.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify cs6.refuting_instance.cert.json cs6.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify ham4.comatching.cert.json ham4.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify ham4.comatching_with_intersection.cert.json ham4.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify ham4.refuting_instance.cert.json ham4.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify nerve-ham4.collapse_sequence.cert.json nerve-ham4.json", 0,
     "709f0bbd2c977fdf71f5effcd1bd2e5f808ceab5f79df9e007933590ec0ee734"),
    ("verify nerve-ham4.complex_comatching.cert.json nerve-ham4.json", 0,
     "46997b81ba3a67e5d22950f48845a47a981a93845d40ce9e2c46c0a66e0de713"),
    ("verify nerve-ham4.leray_witness.cert.json nerve-ham4.json", 0,
     "d0a94d6659e8415ae0bed73c7e7667341ed83d256d751bcd05b1c69b04d198df"),
    ("verify r00.comatching.cert.json r00.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r01.comatching.cert.json r01.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r02.comatching.cert.json r02.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r02.comatching_with_intersection.cert.json r02.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r02.refuting_instance.cert.json r02.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r03.comatching.cert.json r03.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r03.comatching_with_intersection.cert.json r03.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r04.comatching.cert.json r04.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r05.comatching.cert.json r05.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r05.comatching_with_intersection.cert.json r05.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r05.refuting_instance.cert.json r05.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r06.comatching.cert.json r06.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r06.comatching_with_intersection.cert.json r06.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r07.comatching.cert.json r07.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r07.comatching_with_intersection.cert.json r07.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r08.comatching.cert.json r08.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r08.comatching_with_intersection.cert.json r08.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r09.comatching.cert.json r09.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r09.comatching_with_intersection.cert.json r09.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r10.comatching.cert.json r10.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r10.comatching_with_intersection.cert.json r10.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r10.refuting_instance.cert.json r10.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r11.comatching.cert.json r11.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r11.comatching_with_intersection.cert.json r11.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r11.refuting_instance.cert.json r11.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r12.comatching.cert.json r12.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r12.comatching_with_intersection.cert.json r12.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r13.comatching.cert.json r13.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r13.comatching_with_intersection.cert.json r13.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r14.comatching.cert.json r14.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r14.comatching_with_intersection.cert.json r14.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r14.refuting_instance.cert.json r14.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r15.comatching.cert.json r15.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r16.comatching.cert.json r16.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r16.comatching_with_intersection.cert.json r16.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r17.comatching.cert.json r17.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r17.comatching_with_intersection.cert.json r17.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r17.refuting_instance.cert.json r17.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r18.comatching.cert.json r18.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r18.comatching_with_intersection.cert.json r18.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r19.comatching.cert.json r19.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r19.comatching_with_intersection.cert.json r19.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r19.refuting_instance.cert.json r19.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r20.comatching.cert.json r20.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r21.comatching.cert.json r21.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r21.comatching_with_intersection.cert.json r21.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r21.refuting_instance.cert.json r21.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r22.comatching.cert.json r22.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r23.comatching.cert.json r23.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r23.comatching_with_intersection.cert.json r23.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r24.comatching.cert.json r24.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r24.comatching_with_intersection.cert.json r24.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r25.comatching.cert.json r25.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r26.comatching.cert.json r26.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r27.comatching.cert.json r27.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r27.comatching_with_intersection.cert.json r27.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r27.refuting_instance.cert.json r27.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r28.comatching.cert.json r28.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r28.comatching_with_intersection.cert.json r28.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify r28.refuting_instance.cert.json r28.json", 0,
     "3f3c8a8b49119c90810232f8601454729abdab1d90fc0c06c24ffedfe0be13c6"),
    ("verify r29.comatching.cert.json r29.json", 0,
     "0cd7bbce7dd4fddf96a15fa25006155806b649024cc5d5b9a19c70a5aa3e7475"),
    ("verify r29.comatching_with_intersection.cert.json r29.json", 0,
     "731179dcd9fc3c1ea781b41202c7c0247dc423a7796e3b44220ba5ad170b4de0"),
    ("verify torus.collapse3.cert.json torus.json", 0,
     "709f0bbd2c977fdf71f5effcd1bd2e5f808ceab5f79df9e007933590ec0ee734"),
    ("verify torus.collapse_sequence.cert.json torus.json", 0,
     "709f0bbd2c977fdf71f5effcd1bd2e5f808ceab5f79df9e007933590ec0ee734"),
    ("verify torus.complex_comatching.cert.json torus.json", 0,
     "46997b81ba3a67e5d22950f48845a47a981a93845d40ce9e2c46c0a66e0de713"),
    ("verify torus.leray2.cert.json torus.json", 0,
     "d0a94d6659e8415ae0bed73c7e7667341ed83d256d751bcd05b1c69b04d198df"),
    ("verify torus.leray_witness.cert.json torus.json", 0,
     "d0a94d6659e8415ae0bed73c7e7667341ed83d256d751bcd05b1c69b04d198df"),
]


def test_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    changed = []
    for call, code, digest in GOLDEN:
        got = run(call)
        if got != (code, digest):
            changed.append(f"{call!r} (exit {got[0]}, expected {code})")
    assert not changed, "stdout or exit code changed: " + "; ".join(changed)
    # The table covers every call and replays every certificate written.
    assert [call for call, _, _ in GOLDEN] == CALLS + verify_calls()
