"""Golden CLI reports: every subcommand in every format it allows, and every error path.

Each case pins the sha256 of standard output, the exit code and the exact
standard error, so a change in key order, whitespace, hashing or message
wording fails here even when the report still parses.  Input files are
written into a temporary directory that becomes the working directory,
so messages that name a file name it by the same relative path on every
machine.

Two kinds of case pin less than the full standard error:

* argparse's own "invalid choice" wording differs between Python
  releases, so those cases pin the message up to the list of choices;
* a malformed ``--partition`` given together with a missing ``--vars``
  holds two usage errors; which one is reported depends on whether the
  JSON-array flags are parsed inside argparse (the partition) or after
  it (the missing flag), so that case pins the error type and exit code.
"""

import hashlib
import json

import pytest

from theta_factor import cli


SPEC = '{"genus": 2, "rank": 2, "degree": 4, "level": 3, "ell": 3, "points": []}'
POINTED = (
    '{"genus": 2, "rank": 2, "degree": 3, "level": 3, "ell": 1, "points": '
    '[{"label": "x", "flag": [1, 1], "weights": [0, 1], "alpha": 0}]}'
)
# leaf sha256 -> value for the depth-1 leaves of SPEC
TABLE = json.dumps(
    {
        "3cf7c4ed373e2335b02513a146c3bb3ad405a9d597869c0f1f8f7250b690ff68": 1,
        "939f80e871f8b47e4baadb79744dc585b9353726ad4b7b058e557d5560d6632f": 2,
        "a672663cffb8c374c81f86456cd10d04a55cde56350f3829070daf85d8c21a82": 3,
        "aab37f738415d852df13753719c50c3184bfa1a28c4c0ce1ba0facb86fc1e7c0": 4,
        "cd3cf19c647cc1ba36884e5b94df53f6bca74ba6bb22307a1bb078f70e7d1243": 5,
        "dfc3d921889c4da1dcdf2cdd7181022e754384622e5f0b28882fa4aeb321f8a1": 6,
    },
    sort_keys=True,
)

FILES = {
    "spec.json": SPEC,
    "pointed.json": POINTED,
    "unbalanced.json": SPEC.replace('"degree": 4', '"degree": 5'),
    "missing-field.json": '{"genus": 1}',
    "not-json.json": "{",
    "array.json": "[]",
    "table.json": TABLE,
    "empty-table.json": "{}",
    "bool-table.json": '{"a": true}',
    "not-json-table.json": "nope",
    # past the interpreter's 4,300-digit limit for int(), so past the decoder
    "long-int.json": SPEC.replace('"degree": 4', '"degree": ' + "1" * 5000),
    # decodes, but lhs and rhs would have 8,001 digits
    "huge-int.json": (
        '{"genus": 0, "rank": 1, "degree": 1%s, "level": 1%s, "ell": 1, "points": []}'
        % ("0" * 4000, "0" * 4000)
    ),
    # one entry past the 1,000-digit cap on integers
    "long-entry-table.json": '{"a": 1, "b": 1%s}' % ("0" * 1000),
    # 259 nodes: a report of about 0.9 MB, written in several batches
    "genus-3.json": (
        '{"genus": 3, "rank": 2, "degree": 7, "level": 3, "ell": 2, "points": ['
        '{"label": "pwwscp", "flag": [2], "weights": [3], "alpha": 2}, '
        '{"label": "prpfps", "flag": [1, 1], "weights": [2, 3], "alpha": 0}]}'
    ),
}

# the largest integer a flag or an oracle may hold, and the smallest past it
LONGEST = "9" * 1000
TOO_LONG = "1" + "0" * 1000
UNCONVERTIBLE = "1" * 5000
# arrays a validation message would echo whole; it shows 40 characters of them
LONG_UNSORTED = json.dumps([1] * 5000 + [2])
ONES = json.dumps([1] * 3000)
# an argument argparse would echo whole; usage errors quote 40 characters of it
LONG_TEXT = "a" * 5000

SCHUBERT = ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,2]"]
QUOT = ["codim", "quot", "--rank", "3", "--genus-tilde", "2", "--points", "1"]
GPS = ["codim", "gps", "--rank", "3", "--genus-tilde", "2", "--points", "0"]
DOUBLEDET = ["codim", "doubledet", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--rank", "2"]
SMALL_SWEEP = ["identities", "--max-rank", "2", "--max-level", "2"]


def _formats(case_id, argv, formats):
    return [(f"{case_id}-{fmt}", argv + ["--format", fmt]) for fmt in formats]


CASES = [
    *_formats("verify-star", ["verify-star", "spec.json"], ("json", "text")),
    *_formats("verify-star-pointed", ["verify-star", "pointed.json"], ("json", "text")),
    *_formats("verify-star-unbalanced", ["verify-star", "unbalanced.json"], ("json", "text")),
    *_formats("decompose", ["decompose", "spec.json"], ("json", "text", "csv")),
    *_formats("decompose-pointed", ["decompose", "pointed.json", "--depth", "2"], ("json", "text", "csv")),
    *_formats("decompose-const", ["decompose", "spec.json", "--depth", "1", "--oracle", "const:5"], ("json", "text", "csv")),
    *_formats("decompose-table", ["decompose", "spec.json", "--depth", "1", "--oracle", "table.json"], ("json", "text")),
    ("decompose-depth-0", ["decompose", "spec.json", "--depth", "0"]),
    *_formats("decompose-genus-3", ["decompose", "genus-3.json"], ("json", "text", "csv")),
    *_formats("branch", ["branch", "--rank", "2", "--power", "2"], ("json", "text", "csv")),
    ("branch-power-0", ["branch", "--rank", "3", "--power", "0"]),
    *_formats("dims", ["dims", "--partition", "[3,2,1]", "--vars", "3"], ("json", "text")),
    ("dims-trailing-zero", ["dims", "--partition", "[2,1,0]", "--vars", "4"]),
    *_formats("schubert", SCHUBERT, ("json", "text")),
    *_formats("quot", QUOT, ("json", "text")),
    *_formats("gps", GPS, ("json", "text")),
    *_formats("doubledet", DOUBLEDET, ("json", "text")),
    *_formats("identities", SMALL_SWEEP, ("json", "text")),
    ("identities-default", ["identities"]),
    # the benchmark's sweep
    ("identities-rank-7-level-8", ["identities", "--max-rank", "7", "--max-level", "8"]),
    *_formats("identities-failing", SMALL_SWEEP, ("json", "text")),
    # usage errors
    ("no-command", []),
    ("unknown-command", ["frobnicate"]),
    ("codim-no-kind", ["codim"]),
    ("branch-missing-power", ["branch", "--rank", "2"]),
    ("branch-bad-int", ["branch", "--rank", "x", "--power", "1"]),
    ("dims-csv", ["dims", "--partition", "[1]", "--vars", "2", "--format", "csv"]),
    ("verify-star-csv", ["verify-star", "spec.json", "--format", "csv"]),
    ("identities-csv", ["identities", "--format", "csv"]),
    ("dims-partition-not-json", ["dims", "--partition", "nope", "--vars", "3"]),
    ("dims-partition-object", ["dims", "--partition", '{"a": 1}', "--vars", "3"]),
    ("dims-partition-bool", ["dims", "--partition", "[true]", "--vars", "3"]),
    ("dims-partition-float", ["dims", "--partition", "[1.5]", "--vars", "3"]),
    ("dims-partition-before-missing-vars", ["dims", "--partition", "nope"]),
    ("schubert-bad-n", ["codim", "schubert", "--r1", "2", "--n", "[2,", "--m", "[0,2]"]),
    ("schubert-bad-m", ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "0"]),
    ("decompose-bad-oracle", ["decompose", "spec.json", "--oracle", "const:x"]),
    ("unknown-long-command", [LONG_TEXT]),
    ("dims-long-format", ["dims", "--partition", "[1]", "--vars", "2", "--format", LONG_TEXT]),
    ("dims-long-format-value", ["dims", "--partition", "[1]", "--vars", "2", "--format=" + LONG_TEXT]),
    ("dims-long-unrecognized", ["dims", "--partition", "[1]", "--vars", "2", LONG_TEXT]),
    ("identities-long-ambiguous", ["identities", "--max=" + LONG_TEXT]),
    # validation errors
    ("verify-star-missing-field", ["verify-star", "missing-field.json"]),
    ("verify-star-not-json", ["verify-star", "not-json.json"]),
    ("verify-star-array", ["verify-star", "array.json"]),
    ("verify-star-long-int", ["verify-star", "long-int.json"]),
    ("verify-star-huge-int", ["verify-star", "huge-int.json"]),
    ("decompose-unbalanced", ["decompose", "unbalanced.json"]),
    ("decompose-negative-depth", ["decompose", "spec.json", "--depth", "-1"]),
    ("decompose-empty-table", ["decompose", "spec.json", "--depth", "1", "--oracle", "empty-table.json"]),
    ("decompose-bool-table", ["decompose", "spec.json", "--oracle", "bool-table.json"]),
    ("decompose-not-json-table", ["decompose", "spec.json", "--oracle", "not-json-table.json"]),
    ("branch-rank-0", ["branch", "--rank", "0", "--power", "1"]),
    ("dims-unsorted", ["dims", "--partition", "[1,2]", "--vars", "3"]),
    ("dims-negative-vars", ["dims", "--partition", "[1]", "--vars", "-1"]),
    ("schubert-invalid", ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,1]"]),
    ("quot-rank-0", ["codim", "quot", "--rank", "0", "--genus-tilde", "2", "--points", "1"]),
    ("gps-negative-points", ["codim", "gps", "--rank", "2", "--genus-tilde", "2", "--points", "-1"]),
    ("doubledet-invalid", ["codim", "doubledet", "--a", "2", "--b", "2", "--p", "2", "--q", "2", "--rank", "3"]),
    ("identities-rank-0", ["identities", "--max-rank", "0"]),
    ("dims-long-unsorted", ["dims", "--partition", LONG_UNSORTED, "--vars", "3"]),
    ("schubert-long-arrays", ["codim", "schubert", "--r1", "3000", "--n", ONES, "--m", "[2" + ONES[2:]]),
    # io errors
    ("verify-star-no-file", ["verify-star", "absent.json"]),
    ("decompose-no-table", ["decompose", "spec.json", "--oracle", "absent-table.json"]),
    # integers at and past the 1,000-digit cap
    *_formats("decompose-longest-const", ["decompose", "spec.json", "--depth", "1", "--oracle", "const:" + LONGEST], ("json", "text")),
    *_formats("doubledet-longest", ["codim", "doubledet", "--a", LONGEST, "--b", "0", "--p", LONGEST, "--q", "0", "--rank", LONGEST], ("json", "text")),
    ("decompose-long-const", ["decompose", "spec.json", "--oracle", "const:" + TOO_LONG]),
    ("decompose-long-negative-const", ["decompose", "spec.json", "--oracle", "const:-" + TOO_LONG]),
    ("decompose-long-table-entry", ["decompose", "spec.json", "--oracle", "long-entry-table.json"]),
    ("decompose-long-depth", ["decompose", "spec.json", "--depth", TOO_LONG]),
    ("doubledet-long-int", ["codim", "doubledet", "--a", "1" * 2500, "--b", "0", "--p", "1" * 2500, "--q", "0", "--rank", "1" * 2500]),
    ("quot-long-genus-tilde", ["codim", "quot", "--rank", "2", "--genus-tilde", TOO_LONG, "--points", "1"]),
    ("branch-long-rank", ["branch", "--rank", TOO_LONG, "--power", "1"]),
    ("identities-long-max-level", ["identities", "--max-level", TOO_LONG]),
    ("dims-long-partition-entry", ["dims", "--partition", f"[{TOO_LONG},1]", "--vars", "3"]),
    ("schubert-long-m-entry", ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", f"[0,{TOO_LONG}]"]),
    # past the interpreter's 4,300-digit limit for int(), so never converted
    ("branch-unconvertible-rank", ["branch", "--rank", UNCONVERTIBLE, "--power", "1"]),
    ("dims-unconvertible-partition-entry", ["dims", "--partition", f"[{UNCONVERTIBLE}]", "--vars", "3"]),
    ("decompose-unconvertible-const", ["decompose", "spec.json", "--oracle", "const:" + UNCONVERTIBLE]),
]

ARGPARSE_CHOICE_WORDING = {
    "unknown-command",
    "dims-csv",
    "verify-star-csv",
    "identities-csv",
    "unknown-long-command",
    "dims-long-format",
    "dims-long-format-value",
}
ERROR_TYPE_ONLY = {"dims-partition-before-missing-vars"}

EMPTY = hashlib.sha256(b"").hexdigest()

# case id -> (sha256 of stdout, exit code, stderr)
EXPECTED = {
    'verify-star-json': (
        'c316f3efc9ee0358e8eb0afb92d3426c84df201d742ddf6d3d00455c833d9452',
        0,
        '',
    ),
    'decompose-genus-3-json': (
        '51d28a64090f4dd524c581e1a88dcb2fb43d24ac20bdcc6da66af5da4f8a2ef3',
        0,
        '',
    ),
    'decompose-genus-3-text': (
        'cee73e9c041b1a2ca049caef834f78e33f35dca2a5d1322b51ab9959a6e67822',
        0,
        '',
    ),
    'decompose-genus-3-csv': (
        '9b468ff3c765dce9f006eb29dce0f43e09145c818a43ad66d4fa9b0fff671d51',
        0,
        '',
    ),
    'dims-long-unsorted': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "parts must be weakly decreasing: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (15003 characters)"}}\n',
    ),
    'schubert-long-arrays': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need m <= n componentwise: m=(2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (9000 characters), n=(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (9000 characters)"}}\n',
    ),
    'verify-star-text': (
        'c074a8f4b6de1c23b18b6544b8442f8b18315ff580c0489452c5e5363b17fae8',
        0,
        '',
    ),
    'verify-star-pointed-json': (
        '67101bdc650a415f8f8ec5691356db61590b63e861196e37d0b499082c71fece',
        0,
        '',
    ),
    'verify-star-pointed-text': (
        'b4e45d08085cf0b1c1c3c184b6c1ba98afb6b87bc8c59e5c673eb5e160ea536d',
        0,
        '',
    ),
    'verify-star-unbalanced-json': (
        'f06f65a2cc20d12977017fd484a35d86818a399f7ff9c1752c20dccb18a16837',
        0,
        '',
    ),
    'verify-star-unbalanced-text': (
        'e50ead7c0bbf107e280ea00004060423989d657887bf13b5654b6554f14d9b49',
        0,
        '',
    ),
    'decompose-json': (
        '9f795095bb5174abab8069508ccfccd236469ba08f9e7fc6d1d15c253a709ef5',
        0,
        '',
    ),
    'decompose-text': (
        '235b0a07fe1c35da53609b4054925e622089734b85795d6e18a1b92f65937bd6',
        0,
        '',
    ),
    'decompose-csv': (
        '2fe2b2f2e1a2d5353efb870e735715f32b27d4112fd1bbf30cdbc90c83991991',
        0,
        '',
    ),
    'decompose-pointed-json': (
        '7504884c233e8be8c6ce8aef0087fb66cb1daf2150c5db4e519d19ddd9bcaa1a',
        0,
        '',
    ),
    'decompose-pointed-text': (
        '3c97b82b8adf588ad159d3430a74456f32d45d44b93d52d9897e94f8d4d015c7',
        0,
        '',
    ),
    'decompose-pointed-csv': (
        'f269269c3c9f7cdd78985e31f8353768fdab231fc8b50270fddc1d02f3ffe9ab',
        0,
        '',
    ),
    'decompose-const-json': (
        '318a367e0e9d7dd13cfc0b49e1f90800fe5255dda509c8c413c32539ab619b72',
        0,
        '',
    ),
    'decompose-const-text': (
        'b80db7cb60abae0edae3412427bf36eee8271dd7ca6c5fd8fe993c667ece7d2c',
        0,
        '',
    ),
    'decompose-const-csv': (
        '28af69cb1371f6bcb5af111bd7284189d8823145248a34365daff006193cedaa',
        0,
        '',
    ),
    'decompose-table-json': (
        '63b7da096edc31f50773d5e91ccde4751e3f218188a2c30820bfc352192e4b7c',
        0,
        '',
    ),
    'decompose-table-text': (
        '536d61f6f9bbbbded047def068057bee1b63fbc023ed2d35c4b174f9c6354606',
        0,
        '',
    ),
    'decompose-depth-0': (
        '029457014c00ed15ef2f58e9938380a83ecd165d5534e388e96eb87d5d31dcef',
        0,
        '',
    ),
    'branch-json': (
        'ca9c8893141b3f0f571359c4b1564c4f08f32a27d76609ae3d63d2ae3ec975fd',
        0,
        '',
    ),
    'branch-text': (
        '3c9516601c07c709036056524d34c1ebadf9824eaea95bc0ea094f697954b630',
        0,
        '',
    ),
    'branch-csv': (
        '5d1f62c677f4593c0197c6229809e32176feacbdd0cca7df5d139e2561ff4dc4',
        0,
        '',
    ),
    'branch-power-0': (
        '4cbe3fb87184fa52d0b6ecf7221b02547a1020b53022182e86813da9c5c8b6da',
        0,
        '',
    ),
    'dims-json': (
        'b88ed37e95738b63574ebf407cae7055f072b6b1c28ad853698f190893b20785',
        0,
        '',
    ),
    'dims-text': (
        '1c44cc8a301dafe3fca0112c5d95b10836dd2ef5818fbb3698e7b0e19190a4d6',
        0,
        '',
    ),
    'dims-trailing-zero': (
        '29ea3da6e4030cd3b9ceb7c39ea25f03ed0a162dc873e9d14fe0abbd902bcfdc',
        0,
        '',
    ),
    'schubert-json': (
        '87a97736b2016aaafd741823381d98fb0560fd734d953f671ee50032c548b4ef',
        0,
        '',
    ),
    'schubert-text': (
        'e51162dcf94a3ea742eb288338ad11d2911b9520133aea5be53230ee7e1e3166',
        0,
        '',
    ),
    'quot-json': (
        '5d474742c1885a5519bf19fa88e0465f0e3bee8079c7ac58de716f1b7632049c',
        0,
        '',
    ),
    'quot-text': (
        '04e3169e52fba56a381e9e1eff60d87da8742e664bcc3a1d23f873b8e6139926',
        0,
        '',
    ),
    'gps-json': (
        '4ec1c593af2e24b235f6853e2a6ce3184ac2c6f0204a7dbc05ecdf64c555367e',
        0,
        '',
    ),
    'gps-text': (
        '373951f6fa17c4f0fcfc84f4da0aec5a65e69d20a9be0141adc1d19327c8bfc0',
        0,
        '',
    ),
    'doubledet-json': (
        '15450ce5b14b38baf9bf62ee5adf2411c94354c20d9e57141d9bfb224e1c31ff',
        0,
        '',
    ),
    'doubledet-text': (
        '02e72dbfee719944e6d51fd6184d47db4142f66dd79f2bceeee3194ee07a8ce0',
        0,
        '',
    ),
    'identities-json': (
        '8a417c1baac0c27032012c02dd13d99bdbe05a6085d3cd9947ff400ea5437cfa',
        0,
        '',
    ),
    'identities-text': (
        '8645d571f5ce34ecb265ab31aaadb9336969af521b578283d563d458084c7ca8',
        0,
        '',
    ),
    'identities-default': (
        '03c68e536d3bc61c9f0155948829585595f6822029e4d2ba221c1686f4d37a4f',
        0,
        '',
    ),
    'identities-failing-json': (
        '5c89ec68230e008e86f2f0ed552c1ccfd7d45151d87a8bc348d81c62eb39f0fd',
        2,
        '',
    ),
    'identities-failing-text': (
        '865a7fe3cbc65b940b5c7500b8f090a20dd3e56d15bf9d007e3b7ee77597efe5',
        2,
        '',
    ),
    'no-command': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "the following arguments are required: command"}}\n',
    ),
    'unknown-command': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument command: invalid choice: \'frobnicate\' (choose from \'verify-star\', \'decompose\', \'branch\', \'dims\', \'codim\', \'identities\')"}}\n',
    ),
    'codim-no-kind': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "the following arguments are required: kind"}}\n',
    ),
    'branch-missing-power': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "the following arguments are required: --power"}}\n',
    ),
    'branch-bad-int': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --rank: invalid int value: \'x\'"}}\n',
    ),
    'dims-csv': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --format: invalid choice: \'csv\' (choose from \'json\', \'text\')"}}\n',
    ),
    'verify-star-csv': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --format: invalid choice: \'csv\' (choose from \'json\', \'text\')"}}\n',
    ),
    'identities-csv': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --format: invalid choice: \'csv\' (choose from \'json\', \'text\')"}}\n',
    ),
    'dims-partition-not-json': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--partition expects a JSON array of integers: Expecting value: line 1 column 1 (char 0)"}}\n',
    ),
    'dims-partition-object': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--partition expects a JSON array of integers, got \'{\\"a\\": 1}\'"}}\n',
    ),
    'dims-partition-bool': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--partition expects a JSON array of integers, got \'[true]\'"}}\n',
    ),
    'dims-partition-float': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--partition expects a JSON array of integers, got \'[1.5]\'"}}\n',
    ),
    'dims-partition-before-missing-vars': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "the following arguments are required: --vars"}}\n',
    ),
    'schubert-bad-n': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--n expects a JSON array of integers: Expecting value: line 1 column 4 (char 3)"}}\n',
    ),
    'schubert-bad-m': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "--m expects a JSON array of integers, got \'0\'"}}\n',
    ),
    'decompose-bad-oracle': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "bad oracle constant: \'const:x\'"}}\n',
    ),
    'verify-star-missing-field': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "spec is missing field \'rank\'"}}\n',
    ),
    'verify-star-not-json': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "not-json.json is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"}}\n',
    ),
    'verify-star-long-int': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "long-int.json holds an integer of more than 4300 digits"}}\n',
    ),
    'verify-star-huge-int': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "degree has more than 1000 digits"}}\n',
    ),
    'verify-star-array': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "spec must be a JSON object"}}\n',
    ),
    'decompose-unbalanced': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "spec fails the balance condition: lhs=6 rhs=9"}}\n',
    ),
    'decompose-negative-depth': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "depth must be a nonnegative integer, got -1"}}\n',
    ),
    'decompose-empty-table': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "leaf oracle failed on {\'genus\': 1, \'rank\': 2, \'degree\': 4, \'level\': 3, \'ell\': 3, \'points\': [{\'label\': \'x1@1\', \'flag\': [2], \'weights\': [0], \'alpha\': 0}, {\'label\': \'x2@1\', \'flag\': [2], \'weights\': [0], \'alpha\': 3}]}: no oracle entry for leaf 3cf7c4ed373e2335b02513a146c3bb3ad405a9d597869c0f1f8f7250b690ff68 (leaf spec: {\\"degree\\":4,\\"ell\\":3,\\"genus\\":1,\\"level\\":3,\\"points\\":[{\\"alpha\\":0,\\"flag\\":[2],\\"label\\":\\"x1@1\\",\\"weights\\":[0]},{\\"alpha\\":3,\\"flag\\":[2],\\"label\\":\\"x2@1\\",\\"weights\\":[0]}],\\"rank\\":2})"}}\n',
    ),
    'decompose-bool-table': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle table bool-table.json must map leaf sha256 to integer"}}\n',
    ),
    'decompose-not-json-table': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle table not-json-table.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"}}\n',
    ),
    'branch-rank-0': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need rank >= 1 and power >= 0"}}\n',
    ),
    'dims-unsorted': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "parts must be weakly decreasing: (1, 2)"}}\n',
    ),
    'dims-negative-vars': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--vars must be nonnegative, got -1"}}\n',
    ),
    'schubert-invalid': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "m must sum to r1=2, got 1"}}\n',
    ),
    'quot-rank-0': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need rank >= 1, genus-tilde >= 0, points >= 0"}}\n',
    ),
    'gps-negative-points': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need rank >= 1, genus-tilde >= 0, points >= 0"}}\n',
    ),
    'doubledet-invalid': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need a + b <= r: a=2, b=2, r=3"}}\n',
    ),
    'identities-rank-0': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "need --max-rank >= 1 and --max-level >= 1"}}\n',
    ),
    'verify-star-no-file': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "io", "message": "cannot read absent.json: [Errno 2] No such file or directory: \'absent.json\'"}}\n',
    ),
    'decompose-no-table': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "io", "message": "cannot read absent-table.json: [Errno 2] No such file or directory: \'absent-table.json\'"}}\n',
    ),
    'decompose-longest-const-json': (
        '6f849b9586c7596cee75b8954b0b9ea1892b76f0f8c128e0a9e5f3c289445e73',
        0,
        '',
    ),
    'decompose-longest-const-text': (
        '938448d0edd7753d374fde7332c5b8b7defac54de1cfcd532a3e2437d8a1e180',
        0,
        '',
    ),
    'doubledet-longest-json': (
        '27ba6a02854062e74b47d70fe2c45445d5c918e00e4b13fbb51a16c2f4ad19da',
        0,
        '',
    ),
    'doubledet-longest-text': (
        'bd279a7a7e9d847a6cd02a31ac3536aab59ac6199011db4c92084f510eb26eed',
        0,
        '',
    ),
    'decompose-long-const': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle constant has more than 1000 digits"}}\n',
    ),
    'decompose-long-negative-const': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle constant has more than 1000 digits"}}\n',
    ),
    'decompose-long-table-entry': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle table long-entry-table.json entry has more than 1000 digits"}}\n',
    ),
    'decompose-long-depth': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--depth has more than 1000 digits"}}\n',
    ),
    'doubledet-long-int': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--a has more than 1000 digits"}}\n',
    ),
    'quot-long-genus-tilde': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--genus-tilde has more than 1000 digits"}}\n',
    ),
    'branch-long-rank': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--rank has more than 1000 digits"}}\n',
    ),
    'identities-long-max-level': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--max-level has more than 1000 digits"}}\n',
    ),
    'dims-long-partition-entry': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--partition entry has more than 1000 digits"}}\n',
    ),
    'schubert-long-m-entry': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--m entry has more than 1000 digits"}}\n',
    ),
    'branch-unconvertible-rank': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--rank has more than 1000 digits"}}\n',
    ),
    'dims-unconvertible-partition-entry': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "--partition entry has more than 1000 digits"}}\n',
    ),
    'decompose-unconvertible-const': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "validation", "message": "oracle constant has more than 1000 digits"}}\n',
    ),
    'identities-rank-7-level-8': (
        '3fe49e1ddb85af6c2b0707cc208be6f59e4cebd0acf184dead93b12d106d59d6',
        0,
        '',
    ),
    'unknown-long-command': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument command: invalid choice: \'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\'... (5000 characters) (choose from \'verify-star\', \'decompose\', \'branch\', \'dims\', \'codim\', \'identities\')"}}\n',
    ),
    'dims-long-format': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --format: invalid choice: \'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\'... (5000 characters) (choose from \'json\', \'text\')"}}\n',
    ),
    'dims-long-format-value': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "argument --format: invalid choice: \'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\'... (5000 characters) (choose from \'json\', \'text\')"}}\n',
    ),
    'dims-long-unrecognized': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "unrecognized arguments: \'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\'... (5000 characters)"}}\n',
    ),
    'identities-long-ambiguous': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        1,
        '{"error": {"type": "usage", "message": "ambiguous option: \'--max=aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\'... (5006 characters) could match --max-rank, --max-level"}}\n',
    ),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_bytes(text.encode())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_case(case_id, argv, capsys, monkeypatch):
    if case_id.startswith("identities-failing"):
        # one case and one failure per (rank, level), in level order
        monkeypatch.setattr(
            cli,
            "_balance_worker",
            lambda r, max_level: (
                max_level, [{"rank": r, "level": k} for k in range(1, max_level + 1)]
            ),
        )
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return hashlib.sha256(captured.out.encode()).hexdigest(), code, captured.err


def test_every_case_is_pinned():
    ids = [case_id for case_id, _ in CASES]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(EXPECTED)


@pytest.mark.parametrize("case_id,argv", CASES, ids=[case_id for case_id, _ in CASES])
def test_report_is_byte_identical(case_id, argv, workdir, capsys, monkeypatch):
    out_sha, code, err = run_case(case_id, argv, capsys, monkeypatch)
    want_sha, want_code, want_err = EXPECTED[case_id]
    assert (out_sha, code) == (want_sha, want_code)
    if case_id in ERROR_TYPE_ONLY:
        assert json.loads(err)["error"]["type"] == json.loads(want_err)["error"]["type"]
    elif case_id in ARGPARSE_CHOICE_WORDING:
        prefix = json.loads(want_err)["error"]["message"].split(" (choose from")[0]
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and error["message"].startswith(prefix)
    else:
        assert err == want_err
    if code == 1:
        assert out_sha == EMPTY
